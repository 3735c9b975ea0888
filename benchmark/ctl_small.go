package main

// ctl_small: the control plane with small messages. Three in-process
// daemons (registry replicas on b0 and b1, soap hot-loaded into b2) and one
// attached seat. The directory holds a dozen entries, so the registry does
// nothing and the JSON codec, the mux framing, the pool, controller pooling
// and telemetry do all the work.

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

const (
	soapService = "soap:sys"
	pipeDepth   = 16
	echoBytes   = 64
)

// ctlGrid is the booted ctl_small system.
type ctlGrid struct {
	daemons []*daemon
	seat    *seat
	raw     *rawPeer
	soap    stream // one open by-name stream to soap:sys
	burst   []*request

	startDaemonMs float64 // median deploy.StartDaemon, for the layer table
	attachMs      float64
}

// waitFor polls cond every 2 ms for up to 10 s: grid boot is asynchronous
// (leases land when the replicas answer), measurements must not race it.
func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("benchmark: timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func bootCtlGrid() (g *ctlGrid, err error) {
	g = &ctlGrid{burst: pingBurst(pipeDepth)}
	defer func() {
		if err != nil {
			g.close()
		}
	}()
	peers := map[string]string{}
	zones := []string{"a", "b", "b"}
	var boots []float64
	for i, zone := range zones {
		node := fmt.Sprintf("b%d", i)
		t0 := time.Now()
		d, err := startDaemon(daemonSpec{Node: node, Zone: zone,
			Registries: []string{"b0", "b1"}, Peers: peers})
		if err != nil {
			return g, err
		}
		boots = append(boots, float64(time.Since(t0))/1e6)
		g.daemons = append(g.daemons, d)
		peers[node] = daemonAddr(d)
	}
	g.startDaemonMs = median(boots)

	t0 := time.Now()
	if g.seat, err = attach(daemonAddr(g.daemons[0])); err != nil {
		return g, err
	}
	g.attachMs = float64(time.Since(t0)) / 1e6
	seatSampling(g.seat, 0)
	regSetCacheTTL(g.seat, 0)
	if err = waitFor("three leases", func() bool {
		e, err := regLookup(g.seat, "module", "vlink")
		return err == nil && len(e) >= len(zones)
	}); err != nil {
		return g, err
	}
	if err = seatLoad(g.seat, "b2", "soap"); err != nil {
		return g, err
	}
	if err = waitFor(soapService+" in the directory", func() bool {
		_, err := regResolve(g.seat, "vlink", soapService)
		return err == nil
	}); err != nil {
		return g, err
	}
	if g.soap, err = seatDialService(g.seat, "vlink", soapService); err != nil {
		return g, err
	}
	// Touch every pooled session once so no measured op pays a dial.
	for _, n := range []string{"b0", "b1", "b2"} {
		if err = seatPing(g.seat, n); err != nil {
			return g, err
		}
	}
	g.raw, err = newRawPeer(rawEcho, echoBytes, 0)
	return g, err
}

func (g *ctlGrid) close() {
	if g.raw != nil {
		g.raw.close()
	}
	if g.soap != nil {
		g.soap.Close()
	}
	if g.seat != nil {
		seatClose(g.seat)
	}
	for _, d := range g.daemons {
		daemonClose(d)
	}
}

// block is the block length. Short enough that a run holds dozens of blocks
// per op and the median over blocks is deep; long enough that a block holds
// hundreds of calls of a microsecond-scale op. Only the smoke test changes
// it, to fit every phase of every workload into seconds.
var block = 100 * time.Millisecond

// refs are the references ctl_small measures against: the same job on a
// plain net.Conn over loopback, no Padico code on its path. For a ping that
// is a raw 64 B echo. For a pipelined burst it is as many raw messages
// written back to back and their echoes read in one go; against a single
// echo the burst read 28.8–35.3 from one boot to the next, following how
// the machine prices a wake-up against a copy that minute, against the raw
// burst 2.60–2.67. The by-name dial ends in the owning daemon's in-process
// linker, which sleeps one simulated Ethernet link latency per hop on the
// wall clock, so the dial is bound by the runtime's timer granularity
// (1.1 ms for a 22.5 µs sleep at one P) and not by the CPU. Divided by a raw
// echo it reads 900–1300 from run to run, following the echo; divided by a
// bare sleep of that same latency it reads 6.3 ±1 %: the number of timer
// quanta a dial costs.
func (g *ctlGrid) refs() map[string]func() error {
	nap := linkLatency()
	return map[string]func() error{
		"raw_echo":   g.raw.echo,
		"raw_pipe16": g.raw.pipelined(pipeDepth),
		"raw_sleep":  func() error { time.Sleep(nap); return nil },
	}
}

// The ops of ctl_small. Each is one closed-loop client waiting for its reply.

func (g *ctlGrid) opPing() op {
	return op{name: "ping", ref: "raw_echo", block: block,
		run: func() error { return seatPing(g.seat, "b0") }}.fast()
}

func (g *ctlGrid) opResolve() op {
	return op{name: "resolve", ref: "raw_echo", block: block, run: func() error {
		e, err := regResolve(g.seat, "vlink", soapService)
		if err == nil && (e.Node != "b2" || e.Service != soapService) {
			err = fmt.Errorf("resolve answered %s/%s", e.Node, e.Service)
		}
		return err
	}}.fast()
}

func (g *ctlGrid) opPipe16() op {
	return op{name: "pipe16", ref: "raw_pipe16", block: block, reps: 4, refReps: 4,
		run: func() error { return seatPipelined(g.seat, "b1", g.burst) }}
}

func (g *ctlGrid) opSoapEcho() op {
	payload := strings.Repeat("padico64", echoBytes/8)
	return op{name: "soap_echo", ref: "raw_echo", block: block, run: func() error {
		out, err := soapEcho(g.soap, payload)
		if err == nil && (len(out) != 1 || out[0] != payload) {
			err = fmt.Errorf("soap echo returned %d params, not its payload", len(out))
		}
		return err
	}}.slow()
}

func (g *ctlGrid) opDialService() op {
	return op{name: "dial_service", ref: "raw_sleep", block: block, reps: 1, refReps: 3, run: func() error {
		st, err := seatDialService(g.seat, "vlink", soapService)
		if err != nil {
			return err
		}
		return st.Close()
	}}
}

func runCtlSmall(cfg runConfig) (*result, error) {
	// One P: a ping-pong's critical path is serial, so one P measures the
	// CPU summed along it and takes Go's idle-P wake-up lottery out.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := newResult(cfg)

	// Only the gated ops run untraced: resolve, soap echo and the rest are
	// read on the traced run, and every op dropped here is more blocks for
	// these.
	var rot *rotation
	err := res.eachBoot(func() (closer, error) { return bootCtlGrid() }, func(i int, sys closer) error {
		grid := sys.(*ctlGrid)
		dials := seatCounter(grid.seat, "wall.dials")
		if !cfg.trace {
			rot = rot.onto(grid.refs(), grid.opPing(), grid.opPipe16(), grid.opDialService())
			rot.runFor(cfg.share())
		} else if cfg.lastBoot(i) {
			if err := grid.traced(cfg, res); err != nil {
				return err
			}
		}
		// Every measured op rode a session that set-up had already dialed: a
		// real TCP dial during the run means session reuse broke.
		dialed := seatCounter(grid.seat, "wall.dials") - dials
		if cfg.trace && cfg.lastBoot(i) {
			res.layer("sockets.wall.dials", float64(dialed))
		}
		res.check("wall.dials flat", dialed == 0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		res.slots(rot, "ping", "pipe16", "dial_service")
	}
	return res, nil
}

// traced is the per-layer pass of ctl_small: the ladder, the same ops with
// the driver's spans on, and the layer micro-measurements the ladder is
// cross-checked against.
func (g *ctlGrid) traced(cfg runConfig, res *result) error {
	res.spans = newSpanLog()
	res.layer("deploy.start_daemon_ms", g.startDaemonMs)
	res.layer("deploy.attach_ms", g.attachMs)
	streams0 := seatCounter(g.seat, "wall.streams")

	// The ladder: five rungs, each adding exactly one layer under the same
	// small request/reply. Raw TCP; a mux stream; the framed codec over a
	// mux stream, answered by a driver-side ReadRequest/WriteResponse loop;
	// a bare Controller pinging the real daemon; the seat's telemetered
	// Controller doing the same.
	pair, err := newMuxPair()
	if err != nil {
		return err
	}
	defer pair.close()
	echoSt, err := pair.dial("bench:echo")
	if err != nil {
		return err
	}
	codecSt, err := pair.dial("bench:codec")
	if err != nil {
		return err
	}
	bare := bareController(g.seat)
	defer controllerClose(bare)
	msg, ping := make([]byte, echoBytes), pingRequest()
	rungs := []rung{
		{"ladder.raw", g.raw.echo},
		{"ladder.mux", func() error { return exchange(echoSt, msg, msg) }},
		{"ladder.codec", func() error { return codecExchange(codecSt, ping) }},
		{"ladder.bare", func() error { return controllerPing(bare, "b0") }},
		{"ladder.ping", func() error { return seatPing(g.seat, "b0") }},
	}
	before, err := seatMetrics(g.seat, "b0")
	if err != nil {
		return err
	}
	us, err := climb(res, cfg.seconds*35/100, rungs)
	if err != nil {
		return err
	}
	after, err := seatMetrics(g.seat, "b0")
	if err != nil {
		return err
	}
	for i, name := range []string{"ladder.raw_us", "ladder.mux_us", "ladder.codec_us", "ladder.bare_us", "ladder.ping_us"} {
		res.layer(name, us[i])
	}
	codecShare, controlShare := us[2]-us[1], us[3]-us[2]
	res.layer("sockets.mux.rtt_share_us", us[1]-us[0])
	res.layer("gatekeeper.codec.rtt_share_us", codecShare)
	res.layer("gatekeeper.control.rtt_share_us", controlShare)
	res.layer("telemetry.rtt_share_us", us[4]-us[3])

	// What b0's own telemetry says about the requests the ladder sent it.
	if reqs := float64(after.Counter("gk.requests") - before.Counter("gk.requests")); reqs > 0 {
		res.layer("gatekeeper.bytes_in_per_req", float64(after.Counter("gk.bytes_in")-before.Counter("gk.bytes_in"))/reqs)
		res.layer("gatekeeper.bytes_out_per_req", float64(after.Counter("gk.bytes_out")-before.Counter("gk.bytes_out"))/reqs)
	}
	handle := after.Hist("gk.handle")
	res.layer("gatekeeper.handle_p50_us", float64(handle.P50Micros))

	// The same ops as the untraced run, spans on.
	rot := newRotation(g.refs(), g.opPing(), g.opResolve(), g.opPipe16(), g.opSoapEcho(), g.opDialService(), g.opOpenStream())
	rot.spans = res.spans
	rot.runFor(cfg.seconds * 35 / 100)
	res.count(rot)
	res.noteOps(rot)
	res.driverOps(rot)
	// The two ops no slot gates, as ratios to the raw echo; the gated three
	// print theirs on the untraced run and their absolute figures above.
	res.layer("resolve_x_raw", rot.ratio("resolve"))
	res.layer("soap_echo_x_raw", rot.ratio("soap_echo"))
	// By-name dial minus its resolve minus the stream open it ends in: what
	// the owning daemon's gateway and in-process linker add.
	res.layer("vlink.dial_share_ms", (rot.p50("dial_service")-rot.p50("resolve")-rot.p50("open_stream"))/1e6)
	res.layer("soap.call_share_us", rot.p50("soap_echo")/1e3-us[1])
	res.layer("trace_overhead_pct", spanOverhead(cfg, res, g.refs(), g.opPing()))

	// Seat sampling on against off, block for block: what a fully traced
	// ping costs over the sampling-off default.
	on, off := newRotation(g.refs(), g.opPing()), newRotation(g.refs(), g.opPing())
	for deadline := time.Now().Add(cfg.seconds / 10); on.rots == 0 || time.Now().Before(deadline); {
		seatSampling(g.seat, 1)
		on.runOnce()
		seatSampling(g.seat, 0)
		off.runOnce()
	}
	res.count(on)
	res.count(off)
	res.layer("telemetry.trace_on_x", on.p50("ping")/off.p50("ping"))

	// The registry client: a warm cache, and a 16-deep batched lookup.
	d := microTime(cfg)
	regSetCacheTTL(g.seat, time.Minute)
	hits0, miss0 := seatCounter(g.seat, "regc.cache_hits"), seatCounter(g.seat, "regc.cache_misses")
	var opErr error
	res.layer("gatekeeper.regclient.resolve_cached_ns", timeLoop(d, func() {
		if _, err := regResolve(g.seat, "vlink", soapService); err != nil {
			opErr = err
		}
	}))
	hits, misses := seatCounter(g.seat, "regc.cache_hits")-hits0, seatCounter(g.seat, "regc.cache_misses")-miss0
	res.layer("gatekeeper.regclient.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	regSetCacheTTL(g.seat, 0)
	names := make([]string, pipeDepth)
	for i := range names {
		names[i] = "vlink"
	}
	res.layer("gatekeeper.regclient.lookupbatch16_us", timeLoop(d, func() {
		out, err := regLookupBatch(g.seat, "module", names)
		if err == nil && (len(out) != len(names) || len(out[0]) != len(g.daemons)) {
			err = fmt.Errorf("lookup batch answered %d of %d queries", len(out), len(names))
		}
		if err != nil {
			opErr = err
		}
	})/1e3)
	res.check("registry client micro-measurements", opErr == nil)
	res.layer("gatekeeper.regclient.failovers", float64(seatCounter(g.seat, "regc.failovers")))

	res.layer("sockets.wall.sessions", float64(seatGauge(g.seat, "wall.sessions")))
	res.layer("sockets.wall.streams", float64(seatCounter(g.seat, "wall.streams")-streams0))

	poolLayer(cfg, res)
	telemetryLayer(cfg, res)
	codecUs, err := codecLayer(cfg, res)
	if err != nil {
		return err
	}

	// The cross-checks that keep the ladder honest. The codec rung contains
	// the four codec calls the in-memory figure times, so it cannot cost
	// less; it costs more by what the codec's reads and writes cost on a
	// mux stream, which a bytes.Buffer cannot show (today up to 5.4 µs against
	// 3.4 µs) — but a rung several times the codec is measuring something
	// else. And the daemon's own handler time is inside what the real daemon
	// adds over a bare mux echo, so it cannot exceed that.
	agree := 100 * (codecShare - codecUs) / codecUs
	res.layer("ladder.codec_agree_pct", agree)
	res.check(fmt.Sprintf("codec rung %.2f us against in-memory codec %.2f us: %+.0f%%, allowed %d%% to +%d%%",
		codecShare, codecUs, agree, -codecBelowPct, codecAbovePct), agree >= -codecBelowPct && agree <= codecAbovePct)
	// gk.handle is a power-of-two histogram: its p50 is a bucket's upper
	// bound, so the bucket's lower bound is what the handler surely took.
	res.check(fmt.Sprintf("handler p50 bucket (%d us) inside the daemon's share %.2f us", handle.P50Micros, us[3]-us[1]),
		float64(handle.P50Micros)/2 <= us[3]-us[1])
	return nil
}

// How far the ladder's codec share may sit from the in-memory codec
// measurement before the run fails.
const (
	codecBelowPct = 25
	codecAbovePct = 150
)

// opOpenStream opens and closes a stream to b2's gatekeeper service on the
// seat's warm session: the stream open a by-name dial ends in, alone.
func (g *ctlGrid) opOpenStream() op {
	return op{name: "open_stream", ref: "raw_echo", block: block, run: func() error {
		st, err := seatOpenControlStream(g.seat, "b2")
		if err != nil {
			return err
		}
		return st.Close()
	}}.fast()
}
