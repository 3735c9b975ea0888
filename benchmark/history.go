package main

// The trajectory: one JSON line per run, appended, never rewritten. Each
// line carries what is needed to read it years later on another machine —
// the commit, the toolchain, the CPU, GOMAXPROCS, the seed and the in-run
// calibration scores — beside every metric of the run.

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

type historyLine struct {
	Time       string             `json:"time"`
	Commit     string             `json:"commit"`
	Go         string             `json:"go"`
	CPU        string             `json:"cpu"`
	NumCPU     int                `json:"num_cpu"`
	Workload   string             `json:"workload"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Calib      map[string]float64 `json:"calib"`
	Metrics    map[string]metric  `json:"metrics"`
}

func appendHistory(r *result, out map[string]metric) error {
	line, err := json.Marshal(historyLine{
		Time: time.Now().UTC().Format(time.RFC3339), Commit: commit(), Go: runtime.Version(),
		CPU: cpuModel(), NumCPU: runtime.NumCPU(),
		Workload: r.cfg.workload, GOMAXPROCS: r.procs, Seed: r.cfg.seed,
		Seconds: r.cfg.seconds.Seconds(), Trace: r.cfg.trace,
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Calib: r.calib, Metrics: out,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(r.cfg.history, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commit is the checkout's HEAD, with "-dirty" when the tree differs from it
// (a line must not be credited to a commit that cannot reproduce it), and
// "unknown" outside a git repository: the benchmark driver runs from an
// exported tree.
func commit() string {
	head, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	id := strings.TrimSpace(string(head))
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err != nil || len(status) > 0 {
		id += "-dirty"
	}
	return id
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
