package main

// The measuring harness: closed-loop blocks in rotation, an in-run reference
// beside every op, per-block ratios, and the driver's own span recorder.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// op is one closed-loop operation of a workload: each call waits for its
// reply before the next is issued (one client).
type op struct {
	name  string
	run   func() error
	block time.Duration // how long the op's block lasts each rotation
	// ref names the reference op this one is measured against. Inside the
	// block the two alternate in short bursts — refReps calls of the
	// reference, reps calls of the op — so both see the same few hundred
	// microseconds of machine: on a shared box the raw echo itself moves
	// between 5 and 8 µs from one 250 ms block to the next, and only a
	// reference taken beside the op cancels that.
	ref           string
	reps, refReps int
	// long is for an op that takes far longer than one call of its
	// reference. When neighbours take the CPU in slices of milliseconds, a
	// two-second call is stretched by every slice it spans while the median
	// of a 3 ms reference misses them all, and the ratio reads the
	// neighbours. With long, both sides of the block's ratio are means over
	// their whole bursts — windows of tens of milliseconds and more, which
	// the slices stretch alike.
	long bool
	// beside, when set, is background load that runs while the op's bursts
	// do and pauses for the reference's: the reference is always taken on a
	// quiet system, or it would measure the load and not the machine.
	beside *background
}

// fast and slow fill in the burst lengths: sixteen calls a burst keeps a
// microsecond-scale op warm; an op that takes milliseconds runs once
// between bursts of its reference.
func (o op) fast() op { o.reps, o.refReps = 16, 16; return o }
func (o op) slow() op { o.reps, o.refReps = 1, 16; return o }

// opStats is everything one op measured in one run.
type opStats struct {
	all      []int64   // every sample, ns
	blockP50 []float64 // p50 of each of the op's own blocks, ns
	ratios   []float64 // per block: op p50 ÷ p50 of the reference beside it
	attempts int
	failed   int
}

// rotation runs a fixed list of ops in blocks, round and round. Rotating
// instead of running each op once for a long time spreads every op over the
// whole run, so a slow minute hits all of them.
type rotation struct {
	ops   []op
	refs  map[string]func() error
	names []string // ops in order, then refs by name
	stats map[string]*opStats
	spans *spanLog // nil when untraced
	rots  int
}

func newRotation(refs map[string]func() error, ops ...op) *rotation {
	r := &rotation{ops: ops, refs: refs, stats: map[string]*opStats{}}
	for _, o := range ops {
		r.names = append(r.names, o.name)
		r.stats[o.name] = &opStats{}
	}
	for name := range refs {
		r.names = append(r.names, name)
		r.stats[name] = &opStats{}
	}
	sort.Strings(r.names[len(ops):])
	return r
}

// onto returns a rotation of the same ops on a freshly booted system that
// carries r's statistics on, so one run's blocks pool over every boot. r is
// nil on the first boot.
func (r *rotation) onto(refs map[string]func() error, ops ...op) *rotation {
	next := newRotation(refs, ops...)
	if r != nil {
		next.stats, next.rots = r.stats, r.rots
	}
	return next
}

// runFor rotates until d has elapsed, at least once, always finishing the
// rotation it is in so that every op has the same number of blocks.
func (r *rotation) runFor(d time.Duration) {
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		r.runOnce()
	}
}

func (r *rotation) runOnce() {
	rot := int32(r.rots)
	r.rots++
	var own, beside []int64
	for _, o := range r.ops {
		st := r.stats[o.name]
		own, beside = own[:0], beside[:0]
		var ref func() error
		var refSt *opStats
		if o.ref != "" {
			ref, refSt = r.refs[o.ref], r.stats[o.ref]
		}
		start := time.Now()
		for t := start; t == start || t.Sub(start) < o.block; {
			if ref != nil {
				t, beside = r.burst(o.ref, ref, refSt, rot, o.refReps, t, beside)
			}
			if o.beside != nil {
				o.beside.resume()
			}
			t, own = r.burst(o.name, o.run, st, rot, max(o.reps, 1), t, own)
			if o.beside != nil {
				o.beside.pause()
				t = time.Now()
			}
		}
		st.all = append(st.all, own...)
		p50 := quantileInt(own, 0.50)
		st.blockP50 = append(st.blockP50, p50)
		if ref != nil {
			refSt.all = append(refSt.all, beside...)
			a, b := p50, quantileInt(beside, 0.50)
			if o.long {
				a, b = meanInt(own), meanInt(beside)
			}
			if a > 0 && b > 0 {
				refSt.blockP50 = append(refSt.blockP50, b)
				st.ratios = append(st.ratios, a/b)
			}
		}
	}
}

// burst calls f n times back to back from time t, appends the successful
// samples to into and returns the time the last call ended.
func (r *rotation) burst(name string, f func() error, st *opStats, rot int32, n int, t time.Time, into []int64) (time.Time, []int64) {
	for i := 0; i < n; i++ {
		err := f()
		t1 := time.Now()
		st.attempts++
		if err != nil {
			st.failed++
			if st.failed <= 3 {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			}
		} else {
			into = append(into, int64(t1.Sub(t)))
			if r.spans != nil {
				r.spans.add(name, rot, t, t1)
			}
		}
		t = t1
	}
	return t, into
}

// p50 is the median over blocks of the op's block medians, in ns. A median
// of medians discards whole blocks a neighbour disturbed.
func (r *rotation) p50(name string) float64 {
	return median(append([]float64(nil), r.stats[name].blockP50...))
}

// ratio is the median over the op's blocks of op_p50 ÷ ref_p50, each pair
// taken from bursts interleaved inside one block: the overhead of the op
// over its reference.
func (r *rotation) ratio(name string) float64 {
	return median(append([]float64(nil), r.stats[name].ratios...))
}

// totals sums attempts and failures over every op.
func (r *rotation) totals() (attempted, failed int) {
	for _, st := range r.stats {
		attempted += st.attempts
		failed += st.failed
	}
	return
}

// tail is the highest percentile of the op that still has ten samples
// beyond it, capped at p99: the tail figure is only as deep as the sample
// count supports.
func (st *opStats) tail() float64 {
	n := len(st.all)
	if n == 0 {
		return 0
	}
	q := 0.99
	if beyond := float64(n) * (1 - q); beyond < 10 {
		q = 1 - 10/float64(n)
		if q < 0.5 {
			q = 0.5
		}
	}
	return quantileInt(st.all, q)
}

func quantileInt(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[int(q*float64(len(s)-1))])
}

func meanInt(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

// median sorts v in place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

// timeLoop calls f in a closed loop for about d and returns ns per call.
func timeLoop(d time.Duration, f func()) float64 {
	const batch = 256
	n := 0
	start := time.Now()
	for {
		for i := 0; i < batch; i++ {
			f()
		}
		n += batch
		if el := time.Since(start); el >= d {
			return float64(el) / float64(n)
		}
	}
}

// --- background load ------------------------------------------------------

// background is one closed-loop client running beside a measured op. Its
// figures may be read while it is paused or stopped.
type background struct {
	run   func() error
	stats opStats
	busy  time.Duration // total time spent resumed

	mu       sync.Mutex
	wake     *sync.Cond // signals the loop: resumed or quit; and pause: call ended
	active   bool
	inFlight bool
	quit     bool
	done     chan struct{}
	resumed  time.Time
}

func startBackground(run func() error) *background {
	b := &background{run: run, done: make(chan struct{})}
	b.wake = sync.NewCond(&b.mu)
	go b.loop()
	return b
}

func (b *background) loop() {
	defer close(b.done)
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for !b.active && !b.quit {
			b.wake.Wait()
		}
		if b.quit {
			return
		}
		b.inFlight = true
		b.mu.Unlock()
		t0 := time.Now()
		err := b.run()
		d := time.Since(t0)
		b.mu.Lock()
		b.inFlight = false
		b.wake.Broadcast()
		b.stats.attempts++
		if err != nil {
			b.stats.failed++
		} else {
			b.stats.all = append(b.stats.all, int64(d))
		}
	}
}

func (b *background) resume() {
	b.mu.Lock()
	b.active, b.resumed = true, time.Now()
	b.mu.Unlock()
	b.wake.Broadcast()
}

// pause returns once the call in flight has ended: what runs next runs on a
// quiet system.
func (b *background) pause() {
	b.mu.Lock()
	b.active = false
	for b.inFlight {
		b.wake.Wait()
	}
	b.busy += time.Since(b.resumed)
	b.mu.Unlock()
}

// stop ends the client and waits until it has; it may be called twice.
func (b *background) stop() {
	b.mu.Lock()
	b.quit = true
	b.mu.Unlock()
	b.wake.Broadcast()
	<-b.done
}

// --- spans -----------------------------------------------------------------

// spanLog is the driver's own trace: one span per measured op, recorded
// around the call into the system, kept in memory, written at exit. The
// parent is the rotation the op ran in — every span of one rotation shares
// that id. Spans inside the program are a later issue.
type spanLog struct {
	origin  time.Time
	recs    []spanRec
	dropped int
}

type spanRec struct {
	name       string
	rot        int32
	start, end int64 // ns since origin
}

// spanCap bounds the log (40 B a span): a run records what fits and counts
// the rest, it never grows without limit.
const spanCap = 1 << 19

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), recs: make([]spanRec, 0, spanCap)}
}

func (l *spanLog) add(name string, rot int32, t0, t1 time.Time) {
	if len(l.recs) == cap(l.recs) {
		l.dropped++
		return
	}
	l.recs = append(l.recs, spanRec{name, rot, int64(t0.Sub(l.origin)), int64(t1.Sub(l.origin))})
}

// write stores the spans as CSV under dir: name,start_ns,end_ns,parent.
func (l *spanLog) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans_"+workload+".csv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# name,start_ns,end_ns,parent (dropped=%d)\n", l.dropped)
	for _, s := range l.recs {
		fmt.Fprintf(w, "%s,%d,%d,rot%d\n", s.name, s.start, s.end, s.rot)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- the raw reference -------------------------------------------------------

// rawPeer is the in-run stand-in for "the hardware": a plain net.Conn over
// loopback TCP with a goroutine on the far end, no Padico code on the path.
type rawPeer struct {
	ln   net.Listener
	conn net.Conn
	msg  []byte
	ack  [1]byte
}

// What the far end of a raw peer, or of a driver-side mux service, does.
const (
	rawEcho = iota // n-byte message, n-byte reply
	rawAck         // n-byte message, 1-byte ack
	rawSink        // stream of sinkBytes, then a 1-byte ack
)

// sinkChunk is the read size of every bulk sink. It must not be smaller
// than the writer's chunk: an 8 KiB reader (io.Copy's default) turns each
// 64 KiB write into eight syscalls on the far side and halves raw TCP.
const sinkChunk = 64 << 10

func newRawPeer(mode byte, size, sinkBytes int) (*rawPeer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		serveRaw(c, mode, size, sinkBytes)
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, err
	}
	if mode == rawSink || size > sinkChunk {
		// Bound the send buffer to one write. Left to autotune, the writer
		// runs megabytes ahead of the reader, the copy falls out of cache and
		// raw TCP reads 2.3 GB/s — slower than the mux, whose 256 KiB credit
		// window keeps its bytes cache-resident. Bounded, it reads ~9 GB/s:
		// that is the hardware the mux is compared with.
		if err := c.(*net.TCPConn).SetWriteBuffer(sinkChunk); err != nil {
			c.Close()
			ln.Close()
			return nil, err
		}
	}
	return &rawPeer{ln: ln, conn: c, msg: make([]byte, size)}, nil
}

// serveRaw is the far end of a reference or of a driver-side mux service.
func serveRaw(c io.ReadWriter, mode byte, size, sinkBytes int) {
	buf := make([]byte, max(size, sinkChunk))
	for {
		switch mode {
		case rawEcho:
			if _, err := io.ReadFull(c, buf[:size]); err != nil {
				return
			}
			if _, err := c.Write(buf[:size]); err != nil {
				return
			}
		case rawAck:
			if _, err := io.ReadFull(c, buf[:size]); err != nil {
				return
			}
			if _, err := c.Write(buf[:1]); err != nil {
				return
			}
		case rawSink:
			// Ack only after exactly sinkBytes arrived, with the last byte
			// read: the sender stamps that byte per transfer, so an early or
			// late ack cannot pass for the right one.
			var last byte
			for got := 0; got < sinkBytes; {
				n, err := c.Read(buf[:min(len(buf), sinkBytes-got)])
				if n > 0 {
					last = buf[n-1]
					got += n
				}
				if err != nil {
					return
				}
			}
			if _, err := c.Write([]byte{last}); err != nil {
				return
			}
		}
	}
}

func (p *rawPeer) close() {
	p.conn.Close()
	p.ln.Close()
}

// exchange sends the peer's message on c and reads reply bytes back.
func exchange(c io.ReadWriter, msg []byte, reply []byte) error {
	if _, err := c.Write(msg); err != nil {
		return err
	}
	_, err := io.ReadFull(c, reply)
	return err
}

// bulkTransfer pushes bulkBytes down c in chunk-sized writes, the last byte
// stamped, and waits for the sink's ack, which must carry that stamp back.
func bulkTransfer(c io.ReadWriter, chunk []byte, stamp byte) error {
	for sent := 0; sent < bulkBytes; sent += len(chunk) {
		if sent+len(chunk) >= bulkBytes {
			chunk[len(chunk)-1] = stamp
		}
		if _, err := c.Write(chunk); err != nil {
			return err
		}
	}
	var ack [1]byte
	if _, err := io.ReadFull(c, ack[:]); err != nil {
		return err
	}
	if ack[0] != stamp {
		return fmt.Errorf("bulk sink acked %d, transfer was stamped %d", ack[0], stamp)
	}
	return nil
}

// echo is one raw round trip of the peer's message size.
func (p *rawPeer) echo() error { return exchange(p.conn, p.msg, p.msg) }

// pipelined is n messages written back to back, then their n echoes read:
// what a pipelined flight costs on raw TCP.
func (p *rawPeer) pipelined(n int) func() error {
	echoes := make([]byte, n*len(p.msg))
	return func() error {
		for i := 0; i < n; i++ {
			if _, err := p.conn.Write(p.msg); err != nil {
				return err
			}
		}
		_, err := io.ReadFull(p.conn, echoes)
		return err
	}
}

// acked is one raw message answered by a single byte.
func (p *rawPeer) acked() error { return exchange(p.conn, p.msg, p.ack[:]) }
