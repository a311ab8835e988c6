package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Every workload at toy size, gates on, untraced and traced: the whole
// path (pool → encode → STREAM → LAKE → CQ → HTTP over a socket → gate →
// history row → trace file) has to hold together under plain `go test`.
func TestSmokeEveryWorkload(t *testing.T) {
	seconds := map[string]float64{
		"ingest_local": 0.2, "ingest_replicated": 0.2, "live_dashboard": 0.8, "history_scan": 0.5,
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := runConfig{
					workload: w.Name, seed: 5, seconds: seconds[w.Name], trace: traced, short: true,
					outDir: filepath.Join(dir, "out"), tmpDir: filepath.Join(dir, "tmp"),
				}
				line, err := execute(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !line.Correct || line.Failed != 0 {
					t.Fatalf("correct=%v failed=%d (see GATE FAILED lines above)", line.Correct, line.Failed)
				}
				if line.Attempted < 1 {
					t.Fatalf("attempted = %d", line.Attempted)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(line.Metrics) != len(want) {
					t.Fatalf("%d metrics on the result line, want %d", len(line.Metrics), len(want))
				}
				for _, d := range want {
					if _, ok := line.Metrics[d.Name]; !ok {
						t.Errorf("result line lacks %s", d.Name)
					}
				}
				if !traced {
					for _, d := range endToEnd {
						if v := line.Metrics[d.Name].Value; v <= 0 {
							t.Errorf("%s = %v: an end-to-end metric must never be 0", d.Name, v)
						}
					}
				}
				hist, err := os.ReadFile(cfg.historyPath())
				if err != nil || !strings.Contains(string(hist), `"workload":"`+w.Name+`"`) {
					t.Errorf("history row missing: %v", err)
				}
				if !strings.Contains(string(hist), `"go_version"`) || !strings.Contains(string(hist), `"cpu_model"`) {
					t.Error("history row lacks provenance")
				}
				_, err = os.Stat(filepath.Join(cfg.outDir, "trace-"+w.Name+".json"))
				if traced && err != nil {
					t.Errorf("traced run wrote no trace file: %v", err)
				}
				if left, _ := filepath.Glob(filepath.Join(cfg.tmpDir, "*")); len(left) > 0 {
					t.Errorf("run left scratch behind: %v", left)
				}
			})
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	dir := t.TempDir()
	_, err := execute(runConfig{workload: "nope", seconds: 0.1, short: true,
		outDir: filepath.Join(dir, "out"), tmpDir: filepath.Join(dir, "tmp")})
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("err = %v", err)
	}
}

// A gate that fails must surface as correct=false, not as a passing run.
func TestGateFailureMarksRunIncorrect(t *testing.T) {
	cfg := runConfig{seed: 5, short: true}
	fx, err := buildIngestFixture(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	res := ingestLoop(fx, 20, time.Minute, nil)
	if errs := gateIngest(fx.plane, fx.batchFn(), len(fx.pool.batches), res.batches, res.acked); len(errs) != 0 {
		t.Fatalf("gate fails on a healthy run: %v", errs)
	}
	// Claim one more acked batch than was sent: exactly-once must object.
	errs := gateIngest(fx.plane, fx.batchFn(), len(fx.pool.batches), res.batches, res.acked+batchSize)
	if len(errs) == 0 {
		t.Fatal("gate passed with a wrong acked count")
	}
	// A reference fed different observations must be caught byte-for-byte.
	tampered := func(k int, dst []observation) (string, []observation) {
		topic, obs := fx.pool.batch(k, dst)
		obs[0].Value += 1
		return topic, obs
	}
	errs = gateIngest(fx.plane, tampered, len(fx.pool.batches), res.batches, res.acked)
	if len(errs) == 0 {
		t.Fatal("gate passed against a reference that differs by one value")
	}
}

// A run killed on a timeout leaves its WAL directory on tmpfs; the next
// run removes it, and leaves a live run's alone.
func TestSweepRemovesOnlyDeadRunsWALDirs(t *testing.T) {
	gone := exec.Command("true")
	if err := gone.Run(); err != nil {
		t.Skip("cannot run a child process:", err)
	}
	root := t.TempDir()
	dead := filepath.Join(root, fmt.Sprintf("%s%d-abc", shmWALPrefix, gone.Process.Pid))
	live := filepath.Join(root, fmt.Sprintf("%s%d-abc", shmWALPrefix, os.Getpid()))
	other := filepath.Join(root, "somebody-elses")
	for _, d := range []string{dead, live, other} {
		if err := os.MkdirAll(filepath.Join(d, "n1"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	sweepStaleWALDirs(root)
	if _, err := os.Stat(dead); !os.IsNotExist(err) {
		t.Errorf("a dead run's directory survived the sweep (err=%v)", err)
	}
	for _, d := range []string{live, other} {
		if _, err := os.Stat(d); err != nil {
			t.Errorf("the sweep removed %s: %v", filepath.Base(d), err)
		}
	}
}
