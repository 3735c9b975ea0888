package main

// sim_paper: the paper's §4.4 on the virtual-time testbed — repeated full
// passes of the eight experiments. The host seconds are the metric; the
// virtual results are deterministic and are the correctness check. It
// exercises vtime, simnet, marcel, arbitration, madeleine, circuit, orb,
// giop, cdr, mpi and gridccm, and none of the wall sockets or the
// gatekeeper: nothing a control- or data-plane change does should show here.

import (
	"fmt"
	"runtime"
	"time"
)

// maxDeviation is the most any experiment may differ from the paper's
// published figure (today's worst is 0.058).
const maxDeviation = 0.06

// simClasses groups the experiments by what they stress, one class per
// end-to-end slot.
var simClasses = map[string][]string{
	"sim_latency":   {"lat", "overhead", "cross", "security"},
	"sim_bandwidth": {"fig7", "concurrent"},
	"sim_scaling":   {"fig8", "eth"},
}

// simBlocks gives the cheap classes a block long enough for several calls,
// in units of the common block; one call of the scaling class is a block of
// its own.
var simBlocks = map[string]time.Duration{"sim_latency": 4, "sim_bandwidth": 6}

// simRefReps sizes each reference burst (2.5 ms a call) to its class: about
// as long as one call of the class, up to a sixth of a second.
var simRefReps = map[string]int{"sim_latency": 8, "sim_bandwidth": 24, "sim_scaling": 64}

// quickClasses is what the smoke test runs: one cheap experiment standing in
// for each class (the scaling experiments take a second each).
var quickClasses = map[string][]string{
	"sim_latency":   {"lat"},
	"sim_bandwidth": {"concurrent"},
	"sim_scaling":   {"security"},
}

type simBed struct {
	byID    map[string]experiment
	classes map[string][]string
}

func (simBed) close() {}

// runExperiments runs the named experiments once, in order, and fails on a
// deviation beyond the bound or a simulator panic (a vtime deadlock).
func (b simBed) runExperiments(ids ...string) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("simulator panicked: %v", p)
		}
	}()
	for _, id := range ids {
		if dev := b.byID[id].run(); dev > maxDeviation {
			return fmt.Errorf("%s deviates %.3f from the paper, bound %.2f", id, dev, maxDeviation)
		}
	}
	return nil
}

func bootSimBed(quick bool) (simBed, error) {
	b := simBed{byID: map[string]experiment{}, classes: simClasses}
	if quick {
		b.classes = quickClasses
	}
	for _, e := range paperExperiments() {
		b.byID[e.id] = e
	}
	// One full pass before the clock starts: the IDL repositories parsed,
	// the heap grown to the size a pass needs.
	return b, b.runExperiments(b.ids()...)
}

// ids lists the bed's experiments in paper order.
func (b simBed) ids() []string {
	in := map[string]bool{}
	for _, class := range b.classes {
		for _, id := range class {
			in[id] = true
		}
	}
	var ids []string
	for _, e := range paperExperiments() {
		if in[e.id] {
			ids = append(ids, e.id)
		}
	}
	return ids
}

func (b simBed) ops() []op {
	var ops []op
	for _, class := range []string{"sim_latency", "sim_bandwidth", "sim_scaling"} {
		ids := b.classes[class]
		ops = append(ops, op{name: class, ref: "sim_ref", reps: 1, refReps: simRefReps[class], long: true, block: simBlocks[class] * block,
			run: func() error { return b.runExperiments(ids...) }})
	}
	return ops
}

func runSimPaper(cfg runConfig) (*result, error) {
	// One P. The simulator hands one token between its actors, so a pass is
	// as serial as a ping-pong; at two Ps the small experiments take 1.6× as
	// long (cross-P wake-ups) and, over five ten-run batches, both workloads
	// that ran at nproc had runs a neighbour's burst moved by 20–60 % while
	// neither one-P workload had any.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := newResult(cfg)
	var rot *rotation
	err := res.eachBoot(func() (closer, error) { return bootSimBed(cfg.quick) }, func(i int, sys closer) error {
		b := sys.(simBed)
		if !cfg.trace {
			rot = rot.onto(map[string]func() error{"sim_ref": simReference}, b.ops()...)
			rot.runFor(cfg.share())
		} else if cfg.lastBoot(i) {
			return b.traced(cfg, res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		res.slots(rot, "sim_latency", "sim_bandwidth", "sim_scaling")
	}
	return res, nil
}

// simReference is sim_paper's in-run reference: no socket is involved in a
// simulated pass, so raw TCP says nothing about it. What a pass spends its
// host time on is goroutine hand-offs and copying payloads, so the
// reference is exactly that on the bare Go runtime: refHandoffs round trips
// over an unbuffered channel and refCopyBytes of memmove.
func simReference() error {
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(pong)
	}()
	for i := 0; i < refHandoffs; i++ {
		ping <- struct{}{}
		<-pong
	}
	close(ping)
	<-pong
	for done := 0; done < refCopyBytes; done += len(refSrc) {
		copy(refDst, refSrc)
	}
	return nil
}

const (
	refHandoffs  = 5000
	refCopyBytes = 16 << 20
)

var refSrc, refDst = make([]byte, 1<<20), make([]byte, 1<<20)

// simLayerNames maps each experiment to the layer it is the figure of: the
// package that does most of its work.
var simLayerNames = map[string]string{
	"fig7":       "orb.fig7_s",
	"lat":        "orb.latency_s",
	"concurrent": "arbitration.concurrent_s",
	"fig8":       "gridccm.fig8_s",
	"eth":        "gridccm.eth_s",
	"overhead":   "madeleine.overhead_s",
	"cross":      "circuit.cross_s",
	"security":   "vlink.security_s",
}

// traced is the per-layer pass of sim_paper: every experiment timed on its
// own, spans on, plus the two layers a pass leans on hardest.
func (b simBed) traced(cfg runConfig, res *result) error {
	res.spans = newSpanLog()
	var ops []op
	for _, id := range b.ids() {
		ops = append(ops, op{name: id, run: func() error { return b.runExperiments(id) }})
	}
	rot := newRotation(nil, ops...)
	rot.spans = res.spans
	rot.runFor(cfg.seconds * 8 / 10)
	res.count(rot)
	res.noteOps(rot)
	pass := 0.0
	for _, o := range ops {
		s := rot.p50(o.name) / 1e9
		res.layer(simLayerNames[o.name], s)
		pass += s
	}
	res.layer("sim_pass_s", pass) // the sum of the experiments' medians
	simLayers(cfg, res)
	return nil
}
