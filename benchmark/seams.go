package main

// Every call the driver makes into padico/internal/* lives in this file and
// nowhere else (smoke_test.go enforces it). The other files see the system
// only through the functions below, so an API change in internal/* breaks
// exactly one file of the benchmark — and needs a paired benchmark issue,
// because editing this file is editing the instrument (see README.md).

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"padico/internal/bench"
	"padico/internal/deploy"
	"padico/internal/gatekeeper"
	"padico/internal/madeleine"
	"padico/internal/pool"
	"padico/internal/simnet"
	"padico/internal/soap"
	"padico/internal/sockets"
	"padico/internal/telemetry"
	"padico/internal/vlink"
	"padico/internal/vtime"
)

type (
	daemon     = deploy.Daemon
	seat       = deploy.WallDeployment
	wallHost   = sockets.WallHost
	controller = gatekeeper.Controller
	stream     = vlink.Stream
	entry      = gatekeeper.Entry
	request    = gatekeeper.Request
	response   = gatekeeper.Response
	snapshot   = telemetry.Snapshot
	telRoot    = telemetry.Registry
	telCounter = telemetry.Counter
)

// daemonSpec is the part of deploy.DaemonConfig the workloads set. Lease
// and sync intervals stay at the production defaults.
type daemonSpec struct {
	Node, Zone  string
	Registries  []string
	ShardGroups [][]string
	Peers       map[string]string
	Modules     []string
}

// --- deploy: daemons and the attached seat -------------------------------

func startDaemon(s daemonSpec) (*daemon, error) {
	return deploy.StartDaemon(deploy.DaemonConfig{
		Node: s.Node, Zone: s.Zone, Registries: s.Registries,
		ShardGroups: s.ShardGroups, Peers: s.Peers, Modules: s.Modules,
	})
}

func shardPlacement(zones map[string]string, shards int) [][]string {
	return deploy.ShardPlacement(zones, shards)
}

func daemonAddr(d *daemon) string { return d.Addr() }
func daemonClose(d *daemon)       { d.Close() }
func daemonKill(d *daemon)        { d.Kill() }

// daemonLookup answers a lookup from the daemon's own replica, in process,
// and reports how many shards the scan covered (Registry.Lookup walks every
// hosted shard; a lookup that arrives on the wire walks one).
func daemonLookup(d *daemon, kind, name string) (entries []entry, shards int) {
	return d.Reg.Lookup(kind, name), len(d.Reg.ShardIDs())
}

// daemonEntries is the replica's live entry count as its status op reports it.
func daemonEntries(d *daemon) int { return d.Reg.Status().Entries }

func daemonSnapshot(d *daemon) *snapshot { return d.Telemetry().Snapshot() }

func attach(addrs ...string) (*seat, error) { return deploy.Attach(addrs) }
func seatClose(s *seat)                     { s.Close() }

// seatSampling sets the seat's root-span sampling: Attach turns it on for
// operator commands, the hot-path workloads want the daemon default (0).
func seatSampling(s *seat, n int) { s.Telemetry().SetSpanSampling(n) }

func seatCounter(s *seat, name string) int64 { return s.Telemetry().Counter(name).Value() }
func seatGauge(s *seat, name string) int64   { return s.Telemetry().Gauge(name).Value() }

func seatDialService(s *seat, kind, name string) (stream, error) {
	return s.DialService(kind, name)
}

// seatOpenControlStream opens a stream to a node's gatekeeper service on
// the seat's pooled mux session — DialService minus the registry resolve
// and minus the owning daemon's gateway.
func seatOpenControlStream(s *seat, node string) (io.ReadWriteCloser, error) {
	return s.Host.Dial(node, gatekeeper.Service)
}

// --- gatekeeper: controller ----------------------------------------------

func seatPing(s *seat, node string) error { return s.Ctl.Ping(node) }

func seatLoad(s *seat, node, module string) error {
	_, err := s.Ctl.Load(node, module)
	return err
}

func seatMetrics(s *seat, node string) (*snapshot, error) { return s.Ctl.Metrics(node) }

func pingBurst(n int) []*request {
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = &request{Op: gatekeeper.OpPing}
	}
	return reqs
}

// seatPipelined writes the burst back to back on one pooled session and
// checks every reply.
func seatPipelined(s *seat, node string, reqs []*request) error {
	resps, err := s.Ctl.DoPipelined(node, reqs)
	if err != nil {
		return err
	}
	if len(resps) != len(reqs) {
		return fmt.Errorf("pipelined: %d replies to %d requests", len(resps), len(reqs))
	}
	for _, r := range resps {
		if err := r.Err(); err != nil {
			return err
		}
	}
	return nil
}

// bareController is a controller on the seat's transport with no telemetry
// attached: the rung below the seat's own Ctl on the ladder.
func bareController(s *seat) *controller { return gatekeeper.NewController(s.Wall, s.Tr) }

func controllerPing(c *controller, node string) error { return c.Ping(node) }
func controllerClose(c *controller)                   { c.Close() }

// --- gatekeeper: registry client -----------------------------------------

func regSetCacheTTL(s *seat, d time.Duration) { s.Registry().SetCacheTTL(d) }

func regResolve(s *seat, kind, name string) (entry, error) { return s.Registry().Resolve(kind, name) }

func regLookup(s *seat, kind, name string) ([]entry, error) { return s.Registry().Lookup(kind, name) }

func regLookupBatch(s *seat, kind string, names []string) ([][]entry, error) {
	qs := make([]gatekeeper.LookupQuery, len(names))
	for i, n := range names {
		qs[i] = gatekeeper.LookupQuery{Kind: kind, Name: n}
	}
	return s.Registry().LookupBatch(qs)
}

// regPublish announces a publisher's whole entry set without a lease.
func regPublish(s *seat, node string, entries []entry) error {
	return s.Registry().PublishTTL(node, entries, 0)
}

// --- gatekeeper: framed codec --------------------------------------------

func pingRequest() *request {
	return &request{Op: gatekeeper.OpPing, Node: "bench", TraceID: "t-bench"}
}

func lookupRequest() *request {
	return &request{Op: gatekeeper.OpRegLookup, Kind: "bench", Name: "ld.00042.07", Shard: 7, TraceID: "t-bench"}
}

func okResponse() *response { return &response{OK: true, TraceID: "t-bench"} }

func lookupResponse() *response {
	return &response{OK: true, TraceID: "t-bench", Entries: []entry{{
		Node: "ld00042", Kind: "bench", Name: "ld.00042.07", Service: "bench:load"}}}
}

// codecRound encodes and decodes one request and one reply through buf —
// the four codec calls one control exchange costs, with no I/O under them.
// It returns the bytes the two frames took on the wire.
func codecRound(buf *bytes.Buffer, req *request, resp *response) (int, error) {
	buf.Reset()
	if err := gatekeeper.WriteRequest(buf, req); err != nil {
		return 0, err
	}
	n := buf.Len()
	if _, err := gatekeeper.ReadRequest(buf); err != nil {
		return 0, err
	}
	if err := gatekeeper.WriteResponse(buf, resp); err != nil {
		return 0, err
	}
	n += buf.Len()
	got, err := gatekeeper.ReadResponse(buf)
	if err != nil {
		return 0, err
	}
	return n, got.Err()
}

// codecServe answers every framed request on st with an OK reply until the
// stream ends: a gatekeeper with the gatekeeper taken out.
func codecServe(st io.ReadWriter) {
	ok := okResponse()
	for {
		if _, err := gatekeeper.ReadRequest(st); err != nil {
			return
		}
		if err := gatekeeper.WriteResponse(st, ok); err != nil {
			return
		}
	}
}

// codecExchange is the client half of codecServe: one framed round trip.
func codecExchange(st io.ReadWriter, req *request) error {
	if err := gatekeeper.WriteRequest(st, req); err != nil {
		return err
	}
	resp, err := gatekeeper.ReadResponse(st)
	if err != nil {
		return err
	}
	return resp.Err()
}

// --- sockets: bare wall hosts ---------------------------------------------

func newHost(name string) *wallHost { return sockets.NewWallHost(name) }

func hostListenTCP(h *wallHost) (string, error) { return h.ListenTCP("127.0.0.1:0") }

func hostClose(h *wallHost) { _ = h.Close() }

func hostDialAddr(h *wallHost, addr, service string) (io.ReadWriteCloser, error) {
	return h.DialAddr(addr, service)
}

// hostUseTelemetry gives a bare host its own metric registry so the mux
// counters (wall.frames_out, wall.bytes_out, …) can be read back.
func hostUseTelemetry(h *wallHost, tel *telRoot) { h.SetTelemetry(tel) }

// hostServe accepts streams for service on h and runs handle on each in its
// own goroutine, until the host closes.
func hostServe(h *wallHost, service string, handle func(io.ReadWriteCloser)) error {
	ln, err := h.Listen(service)
	if err != nil {
		return err
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go handle(c)
		}
	}()
	return nil
}

// linkLatency is the one-way latency of the simulated Ethernet link inside
// every daemon: what its in-process linker sleeps per hop.
func linkLatency() time.Duration { return simnet.EthernetLinkLatency }

// --- pool, soap, telemetry, madeleine, vtime -------------------------------

func poolGetPut(n int) { pool.Put(pool.Get(n)) }

func soapEcho(st stream, payload string) ([]string, error) {
	return soap.Call(st, "echo", payload)
}

func newTelemetry(node string) *telRoot { return telemetry.New(node, vtime.NewWall()) }

func telSampling(t *telRoot, n int)                    { t.SetSpanSampling(n) }
func telSpan(t *telRoot)                               { t.StartSpan("bench.op").End() }
func telCounterOf(t *telRoot, name string) *telCounter { return t.Counter(name) }
func telCounterInc(c *telCounter)                      { c.Inc() }
func telCounterValue(c *telCounter) int64              { return c.Value() }
func telGaugeValue(t *telRoot, name string) int64      { return t.Gauge(name).Value() }

// madeleinePack packs one express header and one bulk block, finalises the
// message and recycles it: begin_packing … end_packing for one message.
func madeleinePack(hdr, payload []byte) {
	var p madeleine.Packer
	p.Pack(hdr, madeleine.Express)
	p.Pack(payload, madeleine.Cheaper)
	m := p.Message()
	m.Recycle()
}

// simSleepers runs actors goroutines under a fresh virtual-time Sim, each
// sleeping naps times, and returns once the Sim has drained: actors×naps
// virtual events, nothing else.
func simSleepers(actors, naps int) {
	sim := vtime.NewSim()
	sim.Run(func() {
		for a := 0; a < actors; a++ {
			sim.Go("sleeper", func() {
				for i := 0; i < naps; i++ {
					sim.Sleep(time.Microsecond)
				}
			})
		}
	})
}

// --- bench: the paper's §4.4 experiments -----------------------------------

// experiment is one of the paper's evaluations on the virtual-time testbed.
// run returns the worst relative deviation from the paper's published
// numbers — deterministic, so it is the correctness check, never a metric.
type experiment struct {
	id  string
	run func() float64
}

func paperExperiments() []experiment {
	wrap := func(id string, f func() bench.Result) experiment {
		return experiment{id: id, run: func() float64 { return f().Deviation() }}
	}
	return []experiment{
		wrap("fig7", bench.Fig7Bandwidth),
		wrap("lat", bench.Latency),
		wrap("concurrent", bench.Concurrent),
		wrap("fig8", bench.Fig8GridCCM),
		wrap("eth", bench.EthernetScaling),
		wrap("overhead", bench.PadicoOverhead),
		wrap("cross", bench.CrossParadigm),
		wrap("security", bench.SecurityZones),
	}
}
