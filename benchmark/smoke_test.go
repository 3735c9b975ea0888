package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// contract is the part of BENCHMARK.json the program must agree with.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []contractMetric        `json:"end_to_end"`
	PerLayer  []contractMetric        `json:"per_layer"`
}

type contractMetric struct{ Name, Unit string }

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesMatchContract holds the program's metric and workload tables
// equal to BENCHMARK.json: a metric renamed in one place only would make
// the driver refuse every later run.
func TestNamesMatchContract(t *testing.T) {
	c := readContract(t)
	var want, got []string
	for _, w := range c.Workloads {
		want = append(want, w.Name)
	}
	got = workloadNames()
	sort.Strings(want)
	if strings.Join(want, " ") != strings.Join(got, " ") {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", want, got)
	}

	if len(c.EndToEnd) != len(e2eNames) {
		t.Errorf("end_to_end: BENCHMARK.json has %d metrics, the program %d", len(c.EndToEnd), len(e2eNames))
	}
	for _, m := range c.EndToEnd {
		if !isE2E(m.Name) {
			t.Errorf("end_to_end metric %s is unknown to the program", m.Name)
		}
	}
	if len(c.PerLayer) != len(layerUnits) {
		t.Errorf("per_layer: BENCHMARK.json has %d metrics, the program %d", len(c.PerLayer), len(layerUnits))
	}
	for _, m := range c.PerLayer {
		if unit, ok := layerUnits[m.Name]; !ok {
			t.Errorf("per_layer metric %s is unknown to the program", m.Name)
		} else if unit != m.Unit {
			t.Errorf("per_layer metric %s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, unit)
		}
	}
	for _, m := range append(c.EndToEnd, c.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
		}
	}
}

// TestSeamsAreTheOnlyImporter keeps every call into padico/internal in
// seams.go, where a renamed API breaks one file and not the workloads.
func TestSeamsAreTheOnlyImporter(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if f != "seams.go" && strings.HasPrefix(imp.Path.Value, `"padico/`) {
				t.Errorf("%s imports %s; only seams.go may import the system", f, imp.Path.Value)
			}
		}
	}
}

// smokeConfig is a sub-second run of one workload: same code paths, a
// directory a fiftieth the size, one experiment per sim class, one set-up.
func smokeConfig(workload string, trace bool, dir string) runConfig {
	block = 20 * time.Millisecond
	return runConfig{workload: workload, seed: 7, seconds: 300 * time.Millisecond,
		trace: trace, out: dir, setups: 1, publishers: 125, quick: true}
}

// runSmoke runs one workload and fails the test on an error, a failed check
// or a goroutine still alive after the workload's Close.
func runSmoke(t *testing.T, cfg runConfig) *result {
	t.Helper()
	before := runtime.NumGoroutine()
	start := time.Now()
	res, err := workloads[cfg.workload](cfg)
	t.Logf("%s trace=%t took %v", cfg.workload, cfg.trace, time.Since(start).Round(time.Millisecond))
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if cfg.trace {
		// Timing cross-checks need a quiet machine and a full-length run;
		// under `go test ./...` neither holds, and only the structure is
		// asserted here. The command itself still fails on them.
		t.Logf("%s: %d of %d checks and ops failed (not asserted on a %v run)", cfg.workload, res.failed, res.attempted, cfg.seconds)
	} else if !res.correct() {
		t.Errorf("%s: %d of %d ops failed", cfg.workload, res.failed, res.attempted)
	}
	// Close has returned; give exiting goroutines a moment to be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%s: %d goroutines before, %d after close\n%s", cfg.workload, before, n, buf[:runtime.Stack(buf, true)])
	}
	return res
}

// TestSmokeEndToEnd runs every workload untraced and checks that each
// reports exactly the end-to-end metrics, all of them finite and non-zero.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloadNames() {
		res := runSmoke(t, smokeConfig(w, false, ""))
		for _, name := range e2eNames {
			m, ok := res.metrics[name]
			if !ok || m.Value <= 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %v (measured: %t)", w, name, m.Value, ok)
			}
		}
		for name := range res.metrics {
			if !isE2E(name) {
				t.Errorf("%s: untraced run measured %s, which is not an end-to-end metric", w, name)
			}
		}
	}
}

// TestSmokeTraced runs every workload traced and checks that every metric
// it reports is in the per-layer table, that the spans reach the disk, and
// that both ladders add up to their top rung.
func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloadNames() {
		res := runSmoke(t, smokeConfig(w, true, dir))
		for name := range res.metrics {
			if _, ok := layerUnits[name]; !ok && !isE2E(name) {
				t.Errorf("%s: traced run measured %s, which is not in the per-layer table", w, name)
			}
		}
		if res.spans == nil || len(res.spans.recs) == 0 {
			t.Errorf("%s: traced run recorded no spans", w)
			continue
		}
		if err := res.spans.write(dir, w); err != nil {
			t.Errorf("%s: writing spans: %v", w, err)
		}

		v := func(name string) float64 { return res.metrics[name].Value }
		switch w {
		case "ctl_small":
			sum := v("ladder.raw_us") + v("sockets.mux.rtt_share_us") + v("gatekeeper.codec.rtt_share_us") +
				v("gatekeeper.control.rtt_share_us") + v("telemetry.rtt_share_us")
			assertWithin(t, "ctl_small ladder: raw + four shares", sum, v("ladder.ping_us"))
		case "registry_load":
			sum := v("ladder.ping_us") + v("gatekeeper.registry.lookup_inproc_us") + v("ladder.lookup_residual_us")
			assertWithin(t, "registry_load ladder: ping + scan + residual", sum, v("ladder.lookup_us"))
		}
	}
}

// assertWithin fails unless got is within 1 % of a positive want.
func assertWithin(t *testing.T, what string, got, want float64) {
	t.Helper()
	if want <= 0 || math.Abs(got-want) > 0.01*want {
		t.Errorf("%s = %.4f, top rung = %.4f: not within 1%%", what, got, want)
	}
}
