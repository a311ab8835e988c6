package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// provenance is stamped on every result row and trace file: without it
// a committed number cannot be tied to the code and machine it came from.
type provenance struct {
	Time       string         `json:"time"`
	GitSHA     string         `json:"git_sha"`
	GitDirty   bool           `json:"git_dirty"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	WALDir     string         `json:"wal_dir,omitempty"`
	WALFS      string         `json:"wal_fs,omitempty"`
	FlushModel string         `json:"flush_model,omitempty"`
	Sizes      map[string]any `json:"sizes,omitempty"`
}

func newProvenance(seed int64, seconds float64, trace bool) provenance {
	sha, dirty := gitState()
	return provenance{
		Time:   time.Now().UTC().Format(time.RFC3339),
		GitSHA: sha, GitDirty: dirty,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Seed: seed, Seconds: seconds, Trace: trace,
		Sizes: map[string]any{},
	}
}

// gitState reports HEAD and whether the tree is dirty; "unknown" when
// the benchmark runs from an exported tree that is not a repository.
func gitState() (string, bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	sha := strings.TrimSpace(string(out))
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return sha, err == nil && len(strings.TrimSpace(string(status))) > 0
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// historyRow is one line of history.jsonl (and one run in a -compare
// input file).
type historyRow struct {
	Provenance provenance         `json:"provenance"`
	Workload   string             `json:"workload"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Metrics    map[string]float64 `json:"metrics"`
	GateErrors []string           `json:"gate_errors,omitempty"`
	Notes      map[string]any     `json:"notes,omitempty"`
}

// appendHistory appends, never overwrites: numbers accumulate as a
// trajectory that can be audited against the commits that produced them.
func appendHistory(path string, row historyRow) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(row)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set in MB since the
// last resetPeakRSS: VmHWM, which unlike ru_maxrss can be restarted, so
// that each segment reports a peak of its own — set-up and timed region —
// and not a running maximum over the segments before it.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kib float64
				if _, err := fmt.Sscan(rest, &kib); err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetPeakRSS restarts the high-water mark at the current resident set
// (Linux 4.0 and later). Where it cannot, peaks stay cumulative over the
// process's life, which is what ru_maxrss would have given.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
