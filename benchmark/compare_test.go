package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runSet builds n synthetic runs of one workload; gen yields each run's
// metrics. Timestamps alternate which side ran first when offset flips.
func runSet(workload string, n int, bFirstOnOdd bool, side int, gen func(i int) map[string]float64) []historyRow {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	rows := make([]historyRow, n)
	for i := range rows {
		slot := 2 * i
		first := side == 0
		if bFirstOnOdd && i%2 == 1 {
			first = !first
		}
		if !first {
			slot++
		}
		rows[i] = historyRow{
			Workload: workload, Correct: true, Attempted: 1000, Metrics: gen(i),
			Provenance: provenance{Time: base.Add(time.Duration(slot) * time.Minute).Format(time.RFC3339)},
		}
	}
	return rows
}

func verdictOf(t *testing.T, rows []comparison, workload, metric string) verdict {
	t.Helper()
	for _, c := range rows {
		if c.Workload == workload && c.Metric == metric {
			return c.Verdict
		}
	}
	t.Fatalf("no comparison row for %s/%s", workload, metric)
	return ""
}

func TestCompareVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	jitter := func(v, rel float64) float64 { return v * (1 + rel*(rng.Float64()*2-1)) }
	const w = "ingest_local"

	a := runSet(w, 12, true, 0, func(i int) map[string]float64 {
		return map[string]float64{
			"throughput_per_s": jitter(1_000_000, 0.01), // B wins clearly
			"setup_s":          jitter(0.40, 0.01),      // tie: same distribution
			"latency_ms_p50":   3 + 4*float64(i%2),      // noisy: same median, spread far beyond the bound
			"peak_rss_mb":      jitter(800, 0.01),       // B regresses 25 % against a 15 % bound
			"cq.cells":         4608,                    // ungated, B better
			"latency_ms_tail":  jitter(2.0, 0.01),       // ungated, B worse
		}
	})
	b := runSet(w, 12, true, 1, func(i int) map[string]float64 {
		return map[string]float64{
			"throughput_per_s": jitter(1_200_000, 0.01),
			"setup_s":          jitter(0.40, 0.01),
			"latency_ms_p50":   7 - 4*float64(i%2),
			"peak_rss_mb":      jitter(1000, 0.01),
			"cq.cells":         4000,
			"latency_ms_tail":  jitter(3.0, 0.01),
		}
	})
	rows, notes, ok := compareRuns(a, b)
	for metric, want := range map[string]verdict{
		"throughput_per_s": verdictImproved,
		"setup_s":          verdictUnchanged,
		"latency_ms_p50":   verdictUnresolved,
		"peak_rss_mb":      verdictRegressed,
		"cq.cells":         verdictImproved, // lower is better, wins every pair, zero baseline spread
		"latency_ms_tail":  verdictInfo,     // no bound: a worse ungated metric is reported, not judged
	} {
		if got := verdictOf(t, rows, w, metric); got != want {
			t.Errorf("%s: verdict %q, want %q", metric, got, want)
		}
	}
	if ok {
		t.Error("a regressed gated metric must fail the comparison")
	}
	for _, n := range notes {
		if strings.Contains(n, "alternate") || strings.Contains(n, "fewer than") {
			t.Errorf("unexpected note on a well-formed run set: %s", n)
		}
	}
}

func TestCompareNeedsTenPairsAndNineTenthsWins(t *testing.T) {
	const w = "history_scan"
	mk := func(n int, vals func(i int) float64) []historyRow {
		return runSet(w, n, true, 0, func(i int) map[string]float64 {
			return map[string]float64{"throughput_per_s": vals(i)}
		})
	}
	// Nine pairs, B better in every one: not enough pairs to claim a gain.
	rows, notes, ok := compareRuns(mk(9, func(int) float64 { return 100 }), mk(9, func(int) float64 { return 130 }))
	if got := verdictOf(t, rows, w, "throughput_per_s"); got == verdictImproved {
		t.Error("claimed an improvement from 9 pairs")
	}
	if !ok || len(notes) == 0 {
		t.Errorf("want ok with a too-few-pairs note; ok=%v notes=%v", ok, notes)
	}
	// Ten pairs, B wins eight: under nine tenths.
	rows, _, _ = compareRuns(
		mk(10, func(int) float64 { return 100 }),
		mk(10, func(i int) float64 {
			if i < 2 {
				return 95
			}
			return 130
		}))
	if got := verdictOf(t, rows, w, "throughput_per_s"); got == verdictImproved {
		t.Error("claimed an improvement with 8/10 wins")
	}
	// Ten pairs, B wins all, but the gap is inside the baseline's own IQR.
	rows, _, _ = compareRuns(
		mk(10, func(i int) float64 { return 100 + float64(i) }),
		mk(10, func(i int) float64 { return 100.5 + float64(i) }))
	if got := verdictOf(t, rows, w, "throughput_per_s"); got == verdictImproved {
		t.Error("claimed an improvement smaller than the baseline's spread")
	}
}

func TestCompareFlagsMoreFailuresAndSameOrder(t *testing.T) {
	const w = "live_dashboard"
	gen := func(int) map[string]float64 { return map[string]float64{"throughput_per_s": 3000} }
	a := runSet(w, 10, false, 0, gen) // A always first
	b := runSet(w, 10, false, 1, gen)
	b[3].Failed = 2
	_, notes, ok := compareRuns(a, b)
	if ok {
		t.Error("a higher failed_ops_ratio must fail the comparison")
	}
	joined := strings.Join(notes, "\n")
	if !strings.Contains(joined, "failed_ops_ratio rose") || !strings.Contains(joined, "alternate the order") {
		t.Errorf("notes miss the failure or the ordering warning:\n%s", joined)
	}
}

func TestCompareFilesRoundTripAndExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rows []historyRow) string {
		path := filepath.Join(dir, name)
		for _, r := range rows {
			if err := appendHistory(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	gen := func(v float64) func(int) map[string]float64 {
		return func(int) map[string]float64 { return map[string]float64{"latency_ms_p50": v} }
	}
	a := write("a.jsonl", runSet("ingest_replicated", 10, true, 0, gen(1.0)))
	same := write("same.jsonl", runSet("ingest_replicated", 10, true, 1, gen(1.0)))
	worse := write("worse.jsonl", runSet("ingest_replicated", 10, true, 1, gen(1.5)))

	var out bytes.Buffer
	if code := compareFiles(&out, a, same); code != 0 {
		t.Errorf("identical sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, a, worse); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("regressed set: exit %d\n%s", code, out.String())
	}
	if code := compareFiles(&out, a, filepath.Join(dir, "missing.jsonl")); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	// history.jsonl rows are valid comparer input: one JSON object per line.
	data, _ := os.ReadFile(a)
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var row historyRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
	}
}

// What A measured and B cannot answer for must fail the comparison, not
// pass it with a note.
func TestCompareFailsWhenBLacksWhatAMeasured(t *testing.T) {
	gen := func(int) map[string]float64 {
		return map[string]float64{"throughput_per_s": 100, "latency_ms_p50": 2, "cq.cells": 7}
	}
	a := append(runSet("ingest_local", 10, true, 0, gen), runSet("history_scan", 10, true, 0, gen)...)

	// A whole workload missing from B.
	_, notes, ok := compareRuns(a, runSet("ingest_local", 10, true, 1, gen))
	if ok || !strings.Contains(strings.Join(notes, "\n"), "history_scan: no runs in B") {
		t.Errorf("workload missing from B: ok=%v notes=%v", ok, notes)
	}
	// A workload only B has is a note, not a failure.
	_, notes, ok = compareRuns(runSet("ingest_local", 10, true, 0, gen), runSetSide(a, 1))
	if !ok || !strings.Contains(strings.Join(notes, "\n"), "history_scan: no runs in A") {
		t.Errorf("workload missing from A: ok=%v notes=%v", ok, notes)
	}

	// A gated metric missing from one of B's rows.
	b := runSetSide(a, 1)
	delete(b[3].Metrics, "latency_ms_p50")
	_, notes, ok = compareRuns(a, b)
	if ok || !strings.Contains(strings.Join(notes, "\n"), "lacks the gated metric latency_ms_p50") {
		t.Errorf("gated metric missing from B: ok=%v notes=%v", ok, notes)
	}
	// An ungated one may come and go.
	b = runSetSide(a, 1)
	delete(b[3].Metrics, "cq.cells")
	if _, notes, ok = compareRuns(a, b); !ok {
		t.Errorf("ungated metric missing from B failed the comparison: %v", notes)
	}
}

// runSetSide copies a run set as the other side of its pairs: same
// metrics and provenance, timestamps a minute later.
func runSetSide(rows []historyRow, minutes int) []historyRow {
	out := make([]historyRow, len(rows))
	for i, r := range rows {
		m := make(map[string]float64, len(r.Metrics))
		for k, v := range r.Metrics {
			m[k] = v
		}
		at, _ := time.Parse(time.RFC3339, r.Provenance.Time)
		r.Metrics = m
		if i%2 == 0 { // alternate which side ran first
			r.Provenance.Time = at.Add(time.Duration(minutes) * time.Minute).Format(time.RFC3339)
		} else {
			r.Provenance.Time = at.Add(-time.Duration(minutes) * time.Minute).Format(time.RFC3339)
		}
		out[i] = r
	}
	return out
}

// Traced and untraced rows share history.jsonl; they must never pair, and
// a traced run gates nothing.
func TestComparePairsTracedRunsOnlyWithTracedRuns(t *testing.T) {
	const w = "live_dashboard"
	interleave := func(side int, untraced, traced float64) []historyRow {
		u := runSet(w, 10, true, side, func(int) map[string]float64 { return map[string]float64{"latency_ms_p50": untraced} })
		tr := runSet(w, 10, true, side, func(int) map[string]float64 { return map[string]float64{"latency_ms_p50": traced} })
		var rows []historyRow
		for i := range u {
			tr[i].Provenance.Trace = true
			if i%2 == 0 {
				rows = append(rows, tr[i], u[i])
			} else {
				rows = append(rows, u[i], tr[i])
			}
		}
		return rows
	}
	// Untraced runs agree; B's traced runs are twice as slow. Paired by
	// position the rows would mix the two kinds and report a regression.
	rows, notes, ok := compareRuns(interleave(0, 5, 9), interleave(1, 5, 18))
	if !ok {
		t.Errorf("traced rows leaked into the gated comparison: %v", notes)
	}
	if got := verdictOf(t, rows, w, "latency_ms_p50"); got != verdictUnchanged {
		t.Errorf("untraced verdict %q, want unchanged", got)
	}
	if got := verdictOf(t, rows, w+" (traced)", "latency_ms_p50"); got != verdictInfo {
		t.Errorf("traced verdict %q, want %q: a traced run gates nothing", got, verdictInfo)
	}
	// Only A has traced runs: noted, not failed.
	b := runSet(w, 10, true, 1, func(int) map[string]float64 { return map[string]float64{"latency_ms_p50": 5} })
	if _, notes, ok = compareRuns(interleave(0, 5, 9), b); !ok || !strings.Contains(strings.Join(notes, "\n"), "(traced): no runs in B") {
		t.Errorf("traced runs only in A: ok=%v notes=%v", ok, notes)
	}
}

// A pair is one run length, core count and set of sizes on two commits;
// anything else gets no verdict. A different seed only gets a note.
func TestCompareRefusesPairsThatDidDifferentWork(t *testing.T) {
	const w = "ingest_replicated"
	gen := func(int) map[string]float64 { return map[string]float64{"throughput_per_s": 400_000} }
	stamp := func(rows []historyRow) []historyRow {
		for i := range rows {
			p := &rows[i].Provenance
			p.Seed, p.Seconds, p.GOMAXPROCS = int64(100+i), 20, 1
			p.Sizes = map[string]any{"segments": 4.0, "batches_per_segment": 3906.0}
		}
		return rows
	}
	for name, tc := range map[string]struct {
		mutate func(p *provenance)
		want   string
	}{
		"seconds":    {func(p *provenance) { p.Seconds = 10 }, "seconds 20 vs 10"},
		"gomaxprocs": {func(p *provenance) { p.GOMAXPROCS = 2 }, "gomaxprocs 1 vs 2"},
		"sizes":      {func(p *provenance) { p.Sizes = map[string]any{"segments": 2.0, "batches_per_segment": 3906.0} }, "size segments 4 vs 2"},
	} {
		t.Run(name, func(t *testing.T) {
			a, b := stamp(runSet(w, 10, true, 0, gen)), stamp(runSet(w, 10, true, 1, gen))
			if rows, notes, ok := compareRuns(a, b); !ok || len(rows) == 0 {
				t.Fatalf("matching provenance refused: %v", notes)
			}
			b[4].Provenance.Seed = 7
			if _, notes, ok := compareRuns(a, b); !ok || !strings.Contains(strings.Join(notes, "\n"), "seed 104 against seed 7") {
				t.Errorf("a differing seed: ok=%v notes=%v; want ok with a note", ok, notes)
			}
			tc.mutate(&b[4].Provenance)
			rows, notes, ok := compareRuns(a, b)
			if ok || len(rows) != 0 {
				t.Errorf("ok=%v with %d verdict rows; want a refusal", ok, len(rows))
			}
			if joined := strings.Join(notes, "\n"); !strings.Contains(joined, tc.want) {
				t.Errorf("notes do not say %q:\n%s", tc.want, joined)
			}
		})
	}
}
