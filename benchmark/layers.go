package main

// Layer metrics that need no booted grid: each times public calls of one
// internal package from the driver's side. The workload that exercises the
// layer calls the function on its traced run; every other workload reports
// 0 for it.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// microTime is how long one micro-measurement loops: a hundredth of the
// run, so a 20 s run spends 200 ms on each and a smoke run 10 ms.
func microTime(cfg runConfig) time.Duration {
	return min(max(cfg.seconds/100, 5*time.Millisecond), 250*time.Millisecond)
}

// calibrate scores the machine inside the run, so a figure read next year
// on another box can be told from a change in the code: a raw 64 B echo, a
// memmove, and one-way raw TCP.
func calibrate(cfg runConfig) (map[string]float64, error) {
	d := microTime(cfg)
	echo, err := newRawPeer(rawEcho, echoBytes, 0)
	if err != nil {
		return nil, err
	}
	defer echo.close()
	var echoErr error
	echoNs := timeLoop(d, func() {
		if err := echo.echo(); err != nil {
			echoErr = err
		}
	})
	if echoErr != nil {
		return nil, echoErr
	}

	src, dst := make([]byte, 4<<20), make([]byte, 4<<20)
	copyNs := timeLoop(d, func() { copy(dst, src) })

	sink, err := newRawPeer(rawSink, 0, bulkBytes)
	if err != nil {
		return nil, err
	}
	defer sink.close()
	chunk := make([]byte, bulkChunk)
	var best time.Duration
	for i := byte(1); i <= 4; i++ {
		t0 := time.Now()
		if err := bulkTransfer(sink.conn, chunk, i); err != nil {
			return nil, err
		}
		if el := time.Since(t0); best == 0 || el < best {
			best = el
		}
	}
	return map[string]float64{
		"calib.echo_us":     echoNs / 1e3,
		"calib.memcpy_gb_s": float64(len(src)) / copyNs,
		"calib.tcp_bw_mb_s": float64(bulkBytes) / 1e6 / best.Seconds(),
	}, nil
}

func poolLayer(cfg runConfig, res *result) {
	res.layer("pool.getput_ns", timeLoop(microTime(cfg), func() { poolGetPut(4096) }))
	res.layer("pool.getput_allocs", testing.AllocsPerRun(100, func() { poolGetPut(4096) }))
}

// codecLayer times the framed codec in memory: WriteRequest, ReadRequest,
// WriteResponse, ReadResponse through a bytes.Buffer, no I/O. It returns
// the ping round's cost in µs for the ladder cross-check.
func codecLayer(cfg runConfig, res *result) (pingUs float64, err error) {
	var buf bytes.Buffer
	round := func(req *request, resp *response) func() {
		return func() {
			if _, e := codecRound(&buf, req, resp); e != nil {
				err = e
			}
		}
	}
	d := microTime(cfg)
	ping := round(pingRequest(), okResponse())
	pingNs := timeLoop(d, ping)
	res.layer("gatekeeper.codec.ping_ns", pingNs)
	res.layer("gatekeeper.codec.lookup_ns", timeLoop(d, round(lookupRequest(), lookupResponse())))
	// A 16-deep burst is sixteen frames each way: the codec has no batch
	// frame for control requests, so this is what pipe16 pays in encoding.
	res.layer("gatekeeper.codec.batch16_ns", timeLoop(d, func() {
		for i := 0; i < pipeDepth; i++ {
			ping()
		}
	}))
	res.layer("gatekeeper.codec.allocs_op", testing.AllocsPerRun(100, ping))
	n, e := codecRound(&buf, pingRequest(), okResponse())
	if e != nil {
		err = e
	}
	res.layer("gatekeeper.codec.bytes_ping", float64(n))
	return pingNs / 1e3, err
}

func telemetryLayer(cfg runConfig, res *result) {
	d := microTime(cfg)
	tel := newTelemetry("bench-tel")
	telSampling(tel, 1)
	res.layer("telemetry.span_ns", timeLoop(d, func() { telSpan(tel) }))
	c := telCounterOf(tel, "bench.counter")
	res.layer("telemetry.counter_ns", timeLoop(d, func() { telCounterInc(c) }))
}

func simLayers(cfg runConfig, res *result) {
	d := microTime(cfg)
	hdr, payload := make([]byte, 32), make([]byte, 4096)
	res.layer("madeleine.pack_ns", timeLoop(d, func() { madeleinePack(hdr, payload) }))
	res.layer("madeleine.pack_allocs", testing.AllocsPerRun(100, func() { madeleinePack(hdr, payload) }))
	// K actors × M sleeps: host ns per virtual event, nothing else running.
	const actors, naps = 16, 500
	var runs []float64
	for start := time.Now(); len(runs) < 3 || time.Since(start) < d; {
		t0 := time.Now()
		simSleepers(actors, naps)
		runs = append(runs, float64(time.Since(t0))/(actors*naps))
	}
	res.layer("vtime.event_ns", median(runs))
}

// spanOverhead alternates blocks of one op with the driver's spans on and
// off and returns the difference in percent of the untraced p50: what the
// traced pass costs the figures it reports.
func spanOverhead(cfg runConfig, res *result, refs map[string]func() error, o op) float64 {
	on, off := newRotation(refs, o), newRotation(refs, o)
	on.spans = res.spans
	for deadline := time.Now().Add(cfg.seconds / 10); on.rots == 0 || time.Now().Before(deadline); {
		on.runOnce()
		off.runOnce()
	}
	res.count(on)
	res.count(off)
	return 100 * (on.p50(o.name) - off.p50(o.name)) / off.p50(o.name)
}

// mallocs is the process-wide allocation count; both ends of every stream
// live in this process, so a delta covers the whole path.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// --- the ladder ----------------------------------------------------------------

// rung is one step of a ladder: the same small exchange with one more layer
// under it than the rung below.
type rung struct {
	name string
	run  func() error
}

// climb measures every rung in bursts interleaved inside blocks — sixteen
// calls of each rung, round and round, so all rungs see the same machine —
// and returns each rung's median-of-block-medians in µs. Shares are the
// differences between consecutive rungs; taken from one value per rung,
// they add up to the top rung exactly.
func climb(res *result, d time.Duration, rungs []rung) ([]float64, error) {
	blocks := make([][]float64, len(rungs))
	samples := make([][]int64, len(rungs))
	deadline := time.Now().Add(d)
	for rot := int32(0); rot == 0 || time.Now().Before(deadline); rot++ {
		for i := range samples {
			samples[i] = samples[i][:0]
		}
		start := time.Now()
		for t := start; t == start || t.Sub(start) < block; {
			for i, r := range rungs {
				for k := 0; k < 16; k++ {
					err := r.run()
					t1 := time.Now()
					res.attempted++
					if err != nil {
						res.failed++
						return nil, fmt.Errorf("ladder rung %s: %w", r.name, err)
					}
					samples[i] = append(samples[i], int64(t1.Sub(t)))
					if res.spans != nil {
						res.spans.add(r.name, rot, t, t1)
					}
					t = t1
				}
			}
		}
		for i := range rungs {
			blocks[i] = append(blocks[i], quantileInt(samples[i], 0.5))
		}
	}
	out := make([]float64, len(rungs))
	for i := range rungs {
		out[i] = median(blocks[i]) / 1e3
	}
	return out, nil
}
