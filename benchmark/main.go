// Command benchmark is the repository's one performance instrument: four
// workloads, end-to-end metrics expressed as overhead over an in-run raw
// reference, and a traced pass that splits each figure layer by layer.
// BENCHMARK.json at the repository root is its contract; README.md in this
// directory says why every workload and metric is shaped the way it is.
//
//	go run ./benchmark -workload ctl_small -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"
)

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // directory for the span files of a traced run
	history  string // trajectory file to append to
	// What only the smoke test changes, to fit a run into a second: how many
	// times set-up runs, registry_load's directory size in publishers of 16
	// entries, and quick, which has sim_paper run the cheapest experiment of
	// each class only.
	setups, publishers int
	quick              bool
}

// setups is how many times a run boots its workload's system. setup_s is
// the median boot, and an untraced run measures for an equal share of its
// time on each (see eachBoot).
const setups = 3

// rng is the workload's input generator. The system under test sees only
// what it generates: name order, publisher choice, payload bytes.
func (c runConfig) rng() *rand.Rand { return rand.New(rand.NewSource(c.seed)) }

type closer interface{ close() }

// workloads maps each name in BENCHMARK.json to its runner.
var workloads = map[string]func(runConfig) (*result, error){
	"ctl_small":     runCtlSmall,
	"stream_bulk":   runStreamBulk,
	"registry_load": runRegistryLoad,
	"sim_paper":     runSimPaper,
}

func main() {
	cfg := runConfig{setups: setups, publishers: loadPublishers}
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "ctl_small | stream_bulk | registry_load | sim_paper")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: fixes name order, publisher choice and payloads")
	flag.Float64Var(&seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, spans off; 1: per-layer metrics and the ladder, spans on")
	flag.StringVar(&cfg.out, "out", ".bench_build/trace", "directory the traced run writes its spans under")
	flag.StringVar(&cfg.history, "history", "", "append this run as one JSON line to the file (never rewritten)")
	list := flag.Bool("list", false, "print the metric tables (name, unit, kind) and exit")
	flag.Parse()
	if *list {
		listMetrics(os.Stdout)
		return
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace != 0

	run, ok := workloads[cfg.workload]
	if !ok || flag.NArg() > 0 || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "benchmark: need -workload (one of %v) and -seconds > 0\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(cfg)
	if err == nil && (cfg.trace || cfg.history != "") {
		// The machine score rides with every traced run and every line of
		// the trajectory.
		if res.calib, err = calibrate(cfg); err == nil {
			for name, v := range res.calib {
				res.layer(name, v)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := res.report(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// listMetrics prints every metric the program can report, one a line.
func listMetrics(w *os.File) {
	for _, n := range e2eNames {
		fmt.Fprintf(w, "end_to_end %s %s\n", n, e2eUnit(n))
	}
	names := make([]string, 0, len(layerUnits))
	for n := range layerUnits {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "per_layer %s %s\n", n, layerUnits[n])
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// --- result ------------------------------------------------------------------

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects one run: metrics by name, the op count, and every failed
// check. A failed or wrong-answer op counts against the attempts.
type result struct {
	cfg       runConfig
	procs     int
	metrics   map[string]metric
	attempted int
	failed    int
	spans     *spanLog
	calib     map[string]float64 // the in-run machine score
	notes     []string           // printed as comment lines above the metrics
}

func newResult(cfg runConfig) *result {
	return &result{cfg: cfg, procs: runtime.GOMAXPROCS(0), metrics: map[string]metric{}}
}

// eachBoot boots the workload's system cfg.setups times, hands each one to
// use and closes it when use returns. setup_s is the median boot time: one
// boot is one sample, and one sample of a half-second figure does not
// repeat. An untraced run measures for cfg.share() on every boot and pools
// the blocks, because a figure read on one boot carries that boot's luck —
// where the heap put a 100 000-entry directory, which socket buffers the
// kernel handed out: registry_load's ratios differed by up to 10 % from one
// boot to the next inside a single process, and across processes the means
// over four boots agreed within 2–4 %.
func (r *result) eachBoot(boot func() (closer, error), use func(i int, sys closer) error) error {
	var times []float64
	for i := 0; i < r.cfg.setups; i++ {
		// Every boot starts from a collected heap, as the first one does: the
		// system just closed is garbage the next boot would otherwise pay for.
		runtime.GC()
		t0 := time.Now()
		sys, err := boot()
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, time.Since(t0).Seconds())
		err = use(i, sys)
		sys.close()
		if err != nil {
			return err
		}
	}
	r.notes = append(r.notes, fmt.Sprintf("set-ups %.4g s", times))
	r.e2e("setup_s", median(times))
	return nil
}

// share is the part of the measured phase an untraced run spends on each
// boot; lastBoot is the one a traced run does all its measuring on.
func (c runConfig) share() time.Duration { return c.seconds / time.Duration(c.setups) }
func (c runConfig) lastBoot(i int) bool  { return i == c.setups-1 }

// e2e records an end-to-end metric (read on the untraced run).
func (r *result) e2e(name string, v float64) { r.metrics[name] = metric{v, e2eUnit(name)} }

// slots closes an untraced run: it counts the rotation's ops and fills the
// three overhead slots from the workload's own ops.
func (r *result) slots(rot *rotation, rtt, burst, churn string) {
	r.count(rot)
	r.noteOps(rot)
	r.e2e("rtt_x_raw", rot.ratio(rtt))
	r.e2e("burst_x_raw", rot.ratio(burst))
	r.e2e("churn_x_raw", rot.ratio(churn))
}

// layer records a per-layer metric (read on the traced run).
func (r *result) layer(name string, v float64) { r.metrics[name] = metric{v, layerUnits[name]} }

// count adds a rotation's attempts and failures to the run's.
func (r *result) count(rot *rotation) {
	a, f := rot.totals()
	r.attempted += a
	r.failed += f
}

// noteOps prints each op's absolute figures beside the gated ratios: p50,
// the deepest percentile its sample count supports, and that count.
func (r *result) noteOps(rot *rotation) {
	for _, name := range rot.names {
		st := rot.stats[name]
		if len(st.all) == 0 {
			continue // a reference only the traced run's extra ops use
		}
		r.notes = append(r.notes, fmt.Sprintf("%-14s p50 %10.2f us  tail %10.2f us  n %d  blocks %d",
			name, rot.p50(name)/1e3, st.tail()/1e3, len(st.all), len(st.blockP50)))
	}
}

// driverOps records the absolute figures of every op of a rotation as
// driver.* layer metrics: p50, the tail (p99, or the deepest percentile
// that still has ten samples beyond it) and the sample count.
func (r *result) driverOps(rot *rotation) {
	for _, name := range rot.names {
		if _, listed := layerUnits["driver."+name+"_n"]; !listed {
			continue
		}
		st := rot.stats[name]
		r.layer("driver."+name+"_p50_us", rot.p50(name)/1e3)
		r.layer("driver."+name+"_p99_us", st.tail()/1e3)
		r.layer("driver."+name+"_n", float64(len(st.all)))
	}
}

// check is one correctness assertion outside the per-op checks.
func (r *result) check(what string, ok bool) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "benchmark: check failed: %s\n", what)
	}
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// report prints every metric by name and unit, then the one JSON object the
// contract asks for as the last line. The untraced run reports exactly the
// end-to-end metrics; the traced run exactly the per-layer ones, with 0 for
// a layer this workload does not exercise.
func (r *result) report(w *os.File) error {
	out := map[string]metric{}
	if r.cfg.trace {
		for name, unit := range layerUnits {
			out[name] = metric{0, unit}
		}
		for name, m := range r.metrics {
			if _, ok := layerUnits[name]; ok {
				out[name] = m
			} else if !isE2E(name) {
				return fmt.Errorf("metric %q is not in the per-layer table", name)
			}
		}
	} else {
		for _, name := range e2eNames {
			m, ok := r.metrics[name]
			if !ok {
				return fmt.Errorf("workload %s did not measure %s", r.cfg.workload, name)
			}
			out[name] = m
		}
	}

	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%t GOMAXPROCS=%d\n",
		r.cfg.workload, r.cfg.seed, r.cfg.seconds.Seconds(), r.cfg.trace, r.procs)
	for _, note := range r.notes {
		fmt.Fprintf(w, "# %s\n", note)
	}
	for _, n := range names {
		fmt.Fprintf(w, "%-44s %16.6g %s\n", n, out[n].Value, out[n].Unit)
	}

	if r.spans != nil && r.cfg.out != "" {
		if err := r.spans.write(r.cfg.out, r.cfg.workload); err != nil {
			return err
		}
	}
	if r.cfg.history != "" {
		if err := appendHistory(r, out); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
