package main

// stream_bulk: the data plane alone. Two bare wall hosts, one mux session,
// no gatekeeper and no registry. The mux layer is used three ways, each
// with a different cost: a 64 B message and its 1 B ack (per-frame cost), a
// one-way 16 MiB transfer in 64 KiB writes (per-byte copies and credit
// regrant), and a stream open+close on the warm session (SYN/ACK/FIN). A
// codec or registry change must show nothing here; a mux change shows here
// first.

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

const (
	bulkBytes = 16 << 20
	bulkChunk = 64 << 10

	// warmFor is how long every boot pushes bulk transfers down both paths
	// before anything is measured: socket buffers grown, credit windows open,
	// pool classes filled. It is outside setup_s, which times what is
	// Padico's — hosts, listeners, the session handshake, two stream opens —
	// and would otherwise be 98 % this constant.
	warmFor = 100 * time.Millisecond
)

// ackSizes are the message sizes of the fig-7-style curve on real sockets:
// an n-byte message answered by one byte, mux against raw.
var ackSizes = []struct {
	label string
	bytes int
}{{"64", 64}, {"4k", 4 << 10}, {"64k", 64 << 10}, {"1m", 1 << 20}}

// muxPair is two bare wall hosts and the one mux session between them. The
// sink serves the driver's own services: message+ack at each size, a bulk
// sink, an echo, and a framed-codec responder.
type muxPair struct {
	src, sink *wallHost
	addr      string
	tel       *telRoot // the source host's counters
}

func newMuxPair() (p *muxPair, err error) {
	p = &muxPair{sink: newHost("bench-sink"), src: newHost("bench-src"), tel: newTelemetry("bench-src")}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	hostUseTelemetry(p.src, p.tel)
	if p.addr, err = hostListenTCP(p.sink); err != nil {
		return p, err
	}
	raw := func(mode byte, size int) func(io.ReadWriteCloser) {
		return func(c io.ReadWriteCloser) {
			defer c.Close()
			serveRaw(c, mode, size, bulkBytes)
		}
	}
	services := map[string]func(io.ReadWriteCloser){
		"bench:sink": raw(rawSink, 0),
		"bench:echo": raw(rawEcho, echoBytes),
		"bench:codec": func(c io.ReadWriteCloser) {
			defer c.Close()
			codecServe(c)
		},
	}
	for _, s := range ackSizes {
		services["bench:ack"+s.label] = raw(rawAck, s.bytes)
	}
	for name, handle := range services {
		if err = hostServe(p.sink, name, handle); err != nil {
			return p, err
		}
	}
	return p, nil
}

func (p *muxPair) dial(service string) (io.ReadWriteCloser, error) {
	return hostDialAddr(p.src, p.addr, service)
}

func (p *muxPair) close() {
	hostClose(p.src)
	hostClose(p.sink)
}

// streamPair is the booted stream_bulk system: the mux pair with its open
// streams, and the raw TCP references beside it.
type streamPair struct {
	*muxPair
	ackSt, sinkSt   io.ReadWriteCloser
	rawAck, rawSink *rawPeer

	msg, chunk []byte
	ack        [1]byte
	seq        byte
}

func bootStreamPair(fill func([]byte)) (p *streamPair, err error) {
	p = &streamPair{msg: make([]byte, echoBytes), chunk: make([]byte, bulkChunk)}
	fill(p.msg)
	fill(p.chunk)
	if p.muxPair, err = newMuxPair(); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	if p.ackSt, err = p.dial("bench:ack64"); err != nil {
		return p, err
	}
	if p.sinkSt, err = p.dial("bench:sink"); err != nil {
		return p, err
	}
	if p.rawAck, err = newRawPeer(rawAck, echoBytes, 0); err != nil {
		return p, err
	}
	if p.rawSink, err = newRawPeer(rawSink, 0, bulkBytes); err != nil {
		return p, err
	}
	return p, nil
}

// warm pushes bulk transfers down both paths for warmFor.
func (p *streamPair) warm() error {
	for start := time.Now(); time.Since(start) < warmFor; {
		if err := p.bulk(p.sinkSt); err != nil {
			return err
		}
		if err := p.bulk(p.rawSink.conn); err != nil {
			return err
		}
	}
	return nil
}

func (p *streamPair) close() {
	for _, r := range []*rawPeer{p.rawAck, p.rawSink} {
		if r != nil {
			r.close()
		}
	}
	p.muxPair.close() // takes the open streams with it
}

// bulk pushes bulkBytes down c in bulkChunk writes and waits for the sink's
// ack, which must carry the stamp put on the transfer's last byte.
func (p *streamPair) bulk(c io.ReadWriter) error {
	p.seq++
	return bulkTransfer(c, p.chunk, p.seq)
}

// refs are the same exchanges on plain net.Conns over loopback.
func (p *streamPair) refs() map[string]func() error {
	return map[string]func() error{
		"raw_rtt":  func() error { return exchange(p.rawAck.conn, p.msg, p.ack[:]) },
		"raw_bulk": func() error { return p.bulk(p.rawSink.conn) },
	}
}

func (p *streamPair) ops() []op {
	return []op{
		op{name: "stream_rtt", ref: "raw_rtt", block: block,
			run: func() error { return exchange(p.ackSt, p.msg, p.ack[:]) }}.fast(),
		{name: "stream_bulk", ref: "raw_bulk", block: 2 * block, reps: 1, refReps: 1,
			run: func() error { return p.bulk(p.sinkSt) }},
		op{name: "stream_open", ref: "raw_rtt", block: block, run: func() error {
			st, err := p.dial("bench:ack64")
			if err != nil {
				return err
			}
			return st.Close()
		}}.fast(),
	}
}

func runStreamBulk(cfg runConfig) (*result, error) {
	// One P, as in ctl_small: the sender, the mux reader and the sink take
	// turns on one critical path.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// A boot takes 0.6 ms here and one in three reads two to seven times that
	// (a scheduler tick, a listener's first accept): the median of three is a
	// coin toss, the median of nine is not. The measured phase is split over
	// all nine, like everywhere else.
	cfg.setups *= 3
	res := newResult(cfg)
	rng := cfg.rng()
	var rot *rotation
	err := res.eachBoot(func() (closer, error) {
		return bootStreamPair(func(b []byte) { rng.Read(b) })
	}, func(i int, sys closer) error {
		p := sys.(*streamPair)
		if cfg.trace && !cfg.lastBoot(i) {
			return nil
		}
		if err := p.warm(); err != nil {
			return err
		}
		if cfg.trace {
			return p.traced(cfg, res)
		}
		rot = rot.onto(p.refs(), p.ops()...)
		rot.runFor(cfg.share())
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		res.slots(rot, "stream_rtt", "stream_bulk", "stream_open")
	}
	return res, nil
}

// traced is the per-layer pass of stream_bulk: the same ops with the
// driver's spans on, the message-size curve, and what one message costs the
// mux in frames, wire bytes and allocations.
func (p *streamPair) traced(cfg runConfig, res *result) error {
	res.spans = newSpanLog()
	rot := newRotation(p.refs(), p.ops()...)
	rot.spans = res.spans
	rot.runFor(cfg.seconds / 2)
	res.count(rot)
	res.noteOps(rot)
	res.driverOps(rot)
	res.notes = append(res.notes, fmt.Sprintf("one-way bulk: mux %.0f MB/s, raw TCP %.0f MB/s",
		bulkBytes/1e6/(rot.p50("stream_bulk")/1e9), bulkBytes/1e6/(rot.p50("raw_bulk")/1e9)))
	res.layer("trace_overhead_pct", spanOverhead(cfg, res, p.refs(), p.ops()[0]))

	// The curve: one rotation, one op per size, each beside its raw twin.
	refs := map[string]func() error{}
	var ops []op
	var peers []*rawPeer
	defer func() {
		for _, r := range peers {
			r.close()
		}
	}()
	for _, s := range ackSizes {
		raw, err := newRawPeer(rawAck, s.bytes, 0)
		if err != nil {
			return err
		}
		peers = append(peers, raw)
		st, err := p.dial("bench:ack" + s.label)
		if err != nil {
			return err
		}
		msg := make([]byte, s.bytes)
		refs["raw_"+s.label] = raw.acked
		ops = append(ops, op{name: "mux_" + s.label, ref: "raw_" + s.label, block: block, reps: 4, refReps: 4,
			run: func() error { return exchange(st, msg, p.ack[:]) }})
	}
	curve := newRotation(refs, ops...)
	curve.spans = res.spans
	curve.runFor(cfg.seconds * 3 / 10)
	res.count(curve)
	for _, s := range ackSizes {
		res.layer("sockets.mux.rtt_x_raw."+s.label, curve.ratio("mux_"+s.label))
	}

	// What one 64 B message costs the mux, counted where the work happens.
	const msgs = 2000
	frames, wire := telCounterOf(p.tel, "wall.frames_out"), telCounterOf(p.tel, "wall.bytes_out")
	f0, w0, m0 := telCounterValue(frames), telCounterValue(wire), mallocs()
	for i := 0; i < msgs; i++ {
		if err := exchange(p.ackSt, p.msg, p.ack[:]); err != nil {
			return err
		}
	}
	res.attempted += msgs
	res.layer("sockets.mux.allocs_per_msg", float64(mallocs()-m0)/msgs)
	res.layer("sockets.mux.frames_per_msg", float64(telCounterValue(frames)-f0)/msgs)
	payload := float64(msgs * echoBytes)
	res.layer("sockets.mux.wire_overhead_pct", 100*(float64(telCounterValue(wire)-w0)-payload)/payload)
	dials := telCounterValue(telCounterOf(p.tel, "wall.dials"))
	res.layer("sockets.wall.dials", float64(dials))
	res.layer("sockets.wall.streams", float64(telCounterValue(telCounterOf(p.tel, "wall.streams"))))
	res.layer("sockets.wall.sessions", float64(telGaugeValue(p.tel, "wall.sessions")))
	res.check("one TCP dial carried every stream", dials == 1)

	poolLayer(cfg, res)
	return nil
}
