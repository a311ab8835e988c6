package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// benchProcs is the GOMAXPROCS every run is pinned to. One, because the
// sizing box's second vCPU is there in one minute and gone the next, and
// anything that leans on it swings up to 2x between identical runs
// (README "One core"). A constant, not a flag: two run sets measured at
// different values are not comparable.
const benchProcs = 1

// runConfig is one invocation's parameters. short selects toy sizes and
// is set only by the smoke tests; everything else is the driver's
// contract.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool   // tests only
	outDir   string // history, traces (benchmark/out)
	tmpDir   string // WAL fallback and real-disk probes (.bench_build/run)
}

func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// poolScale is the telemetry scale of the ingest pool (nodes).
func (c runConfig) poolScale() int {
	if c.short {
		return 4
	}
	return 64
}

// segmentSeconds is the nominal length of one segment. A run is cut into
// segments — each a complete, independent replica of the workload on a
// fresh plane: set-up, timed region, gate, tear-down — and every metric
// is reported as the median over the segments. A neighbour's burst that
// lands on one segment then moves nothing, where it would move a single
// long measurement in full; set-up is timed once per segment, which is
// where setup_s's median comes from; and the ever-growing lake of the
// ingest workloads is bounded by the segment, not the run.
const segmentSeconds = 5

// segments is how many segments a run's length asks for.
func (c runConfig) segments() int {
	if c.short {
		return 1
	}
	if n := int(c.seconds/segmentSeconds + 0.5); n > 1 {
		return n
	}
	return 1
}

// untracedSegments is how many untraced segments a run measures: all of
// them, or one when the run is traced (a traced run is one untraced and
// one traced segment of the same size, then the peel ladder).
func (c runConfig) untracedSegments() int {
	if c.trace {
		return 1
	}
	return c.segments()
}

// segmentDuration is the nominal length of one segment's timed region.
func (c runConfig) segmentDuration() time.Duration {
	n := c.segments()
	if c.trace && n < 2 {
		n = 2
	}
	return c.duration() / time.Duration(n)
}

func (c runConfig) historyPath() string { return filepath.Join(c.outDir, "history.jsonl") }

// outcome is what a workload hands back: counts for the driver's
// correct/attempted/failed, measured metrics, and context for history.
type outcome struct {
	attempted, failed int64
	gateErrs          []string
	m                 metricSet
	notes             map[string]any
	tracer            *tracer
	ladder            []ladderRow
}

func newOutcome() *outcome {
	return &outcome{m: metricSet{}, notes: map[string]any{}}
}

// medianOutcome folds the segments of a run into one outcome: counts
// add up, gate errors are kept (tagged with their segment), and every
// metric becomes the median of the segments that reported it.
func medianOutcome(segs []*outcome) *outcome {
	out := newOutcome()
	values := map[string][]float64{}
	for i, s := range segs {
		out.attempted += s.attempted
		out.failed += s.failed
		for _, e := range s.gateErrs {
			out.gateErrs = append(out.gateErrs, fmt.Sprintf("segment %d: %s", i, e))
		}
		for name, v := range s.m {
			values[name] = append(values[name], v)
		}
		for k, v := range s.notes {
			out.notes[k] = v // the last segment's context
		}
	}
	for name, vs := range values {
		out.m.set(name, median(vs))
	}
	out.notes["segments"] = len(segs)
	return out
}

// absorb adds another outcome's counts and gate errors (the traced
// segment's, whose metrics are reported separately).
func (o *outcome) absorb(other *outcome) {
	o.attempted += other.attempted
	o.failed += other.failed
	o.gateErrs = append(o.gateErrs, other.gateErrs...)
}

// runSegments runs n untraced segments and folds them with
// medianOutcome; it also hands back the last segment's own result, which
// the traced run compares its traced segment against.
func runSegments[T any](n int, segment func() (*outcome, T, error)) (*outcome, T, error) {
	var segs []*outcome
	var last T
	for i := 0; i < n; i++ {
		seg, res, err := segment()
		if err != nil {
			return seg, last, err
		}
		segs, last = append(segs, seg), res
	}
	return medianOutcome(segs), last, nil
}

// usage is what the process consumed over a timed region.
type usage struct {
	cpu        time.Duration
	peakRSS    float64 // MB, high-water mark since the segment began
	allocBytes uint64
	gcPause    time.Duration
	heapEnd    uint64

	cpu0 time.Duration
	ms0  runtime.MemStats
}

// startUsage collects garbage, then snapshots the counters a timed region
// is charged against.
func startUsage() *usage {
	u := &usage{}
	runtime.GC()
	runtime.ReadMemStats(&u.ms0)
	u.cpu0 = cpuTime()
	return u
}

func (u *usage) stop() {
	u.cpu = cpuTime() - u.cpu0
	u.peakRSS = peakRSSMB()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.allocBytes = ms.TotalAlloc - u.ms0.TotalAlloc
	u.gcPause = time.Duration(ms.PauseTotalNs - u.ms0.PauseTotalNs)
	u.heapEnd = ms.HeapAlloc
}

// report fills the runtime.* metrics; records is what allocation is
// charged per (0 for a read-only workload).
func (u *usage) report(m metricSet, records int64) {
	m.set("peak_rss_mb", u.peakRSS)
	m.set("runtime.gc_pause_ms_total", float64(u.gcPause.Nanoseconds())/1e6)
	m.set("runtime.heap_mb_end", float64(u.heapEnd)/(1<<20))
	if records > 0 {
		m.set("runtime.alloc_bytes_per_record", ratio(float64(u.allocBytes), float64(records)))
	}
}

// releaseMemory collects what a finished segment left behind, hands the
// freed pages back to the operating system, and restarts the resident
// high-water mark, so the next segment faults its heap in from scratch
// exactly as the first one of a fresh process does and reports a peak of
// its own. Without it a second segment runs 15-30 % faster than the first
// on pages the first one already paid for.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
}

// runWorkload dispatches by name.
func runWorkload(cfg runConfig, prov *provenance) (*outcome, error) {
	switch cfg.workload {
	case "ingest_local":
		return runIngestWorkload(cfg, false, prov)
	case "ingest_replicated":
		return runIngestWorkload(cfg, true, prov)
	case "live_dashboard":
		return runDashboardWorkload(cfg, prov)
	case "history_scan":
		return runHistoryWorkload(cfg, prov)
	}
	return nil, fmt.Errorf("unknown workload %q (have: %s)", cfg.workload, workloadNames())
}
