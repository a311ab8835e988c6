package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// The comparer is the choosing-metrics §8 rule in code. Two run sets —
// A the baseline, B the candidate — are paired run by run per workload.
//
//	improved    B wins at least 9/10 of the pairs (ties count for neither)
//	            AND the medians differ by more than A's own interquartile
//	            range; needs at least minPairs pairs
//	regressed   B's median is worse than A's by more than the metric's bound
//	unresolved  neither of the above, but a side's interquartile range
//	            exceeds the bound, so "unchanged" cannot be claimed
//	unchanged   none of the above
//
// Only the gated end-to-end metrics carry a bound; the rest are reported
// with the same statistics and can only come out improved or "-".
const (
	minPairs    = 10
	winFraction = 0.9
)

type verdict string

const (
	verdictImproved   verdict = "improved"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
	verdictUnchanged  verdict = "unchanged"
	verdictInfo       verdict = "-"
)

// comparison is one (workload, metric) row of the report.
type comparison struct {
	Workload, Metric string
	Pairs            int
	MedianA, MedianB float64
	Q1A, Q3A         float64
	Q1B, Q3B         float64
	WinsB, WinsA     int
	Verdict          verdict
}

func loadRuns(path string) ([]historyRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []historyRow
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var row historyRow
		if err := json.Unmarshal([]byte(text), &row); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}

// runGroup is what rows are paired within: a traced run measures one
// untraced and one traced segment where an untraced run measures four, so
// the two kinds share history.jsonl but never a pair, and only untraced
// runs are judged against the bounds.
type runGroup struct {
	workload string
	traced   bool
}

func (g runGroup) String() string {
	if g.traced {
		return g.workload + " (traced)"
	}
	return g.workload
}

func groupRuns(rows []historyRow) map[runGroup][]historyRow {
	out := map[runGroup][]historyRow{}
	for _, r := range rows {
		g := runGroup{r.Workload, r.Provenance.Trace}
		out[g] = append(out[g], r)
	}
	return out
}

func sortedGroups(m map[runGroup][]historyRow) []runGroup {
	groups := make([]runGroup, 0, len(m))
	for g := range m {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].workload != groups[j].workload {
			return groups[i].workload < groups[j].workload
		}
		return !groups[i].traced && groups[j].traced
	})
	return groups
}

// sameWork reports why two paired runs did not do the same work on the
// same terms ("" when they did): a pair is one run length, core count
// and set of sizes, measured on two commits. (The seed is not among
// them: it reorders and re-draws the inputs but leaves the amount of
// work alone, and two sets of one commit are compared across seeds to
// see the benchmark's own spread. Differing seeds get a note.)
func sameWork(a, b provenance) string {
	switch {
	case a.Seconds != b.Seconds:
		return fmt.Sprintf("seconds %g vs %g", a.Seconds, b.Seconds)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("gomaxprocs %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	}
	sa, sb := marshalIndent(a.Sizes), marshalIndent(b.Sizes)
	if sa != sb {
		for _, k := range sortedKeys(a.Sizes) {
			if va, vb := fmt.Sprint(a.Sizes[k]), fmt.Sprint(b.Sizes[k]); va != vb {
				return fmt.Sprintf("size %s %s vs %s", k, va, vb)
			}
		}
		return "sizes differ"
	}
	return ""
}

// better reports whether b beats a for a metric's direction.
func better(def metricDef, a, b float64) bool {
	if def.Better == "higher" {
		return b > a
	}
	return b < a
}

// worseBy is how much worse b is than a, as a share of a (negative when
// b is better).
func worseBy(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareMetric applies the rule to one metric's paired values.
func compareMetric(def metricDef, a, b []float64) comparison {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	a, b = a[:n], b[:n]
	c := comparison{Metric: def.Name, Pairs: n, MedianA: median(a), MedianB: median(b)}
	c.Q1A, c.Q3A = quartiles(a)
	c.Q1B, c.Q3B = quartiles(b)
	for i := 0; i < n; i++ {
		switch {
		case better(def, a[i], b[i]):
			c.WinsB++
		case better(def, b[i], a[i]):
			c.WinsA++
		}
	}
	iqrA, iqrB := c.Q3A-c.Q1A, c.Q3B-c.Q1B
	gap := c.MedianB - c.MedianA
	if gap < 0 {
		gap = -gap
	}
	gated := def.Bound > 0
	switch {
	case n >= minPairs && float64(c.WinsB) >= winFraction*float64(n) &&
		better(def, c.MedianA, c.MedianB) && gap > iqrA:
		c.Verdict = verdictImproved
	case gated && worseBy(def, c.MedianA, c.MedianB) > def.Bound:
		c.Verdict = verdictRegressed
	case gated && (spread(iqrA, c.MedianA) > def.Bound || spread(iqrB, c.MedianB) > def.Bound):
		c.Verdict = verdictUnresolved
	case gated:
		c.Verdict = verdictUnchanged
	default:
		c.Verdict = verdictInfo
	}
	return c
}

func spread(iqr, med float64) float64 {
	if med == 0 {
		return 0
	}
	if med < 0 {
		med = -med
	}
	return iqr / med
}

// failureRatio is failed ÷ attempted over a run set.
func failureRatio(rows []historyRow) float64 {
	var failed, attempted int64
	for _, r := range rows {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

// orderCounts reports how many pairs ran A first and how many B first,
// from the rows' timestamps.
func orderCounts(a, b []historyRow) (aFirst, bFirst int) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i].Provenance.Time <= b[i].Provenance.Time {
			aFirst++
		} else {
			bFirst++
		}
	}
	return
}

// compareRuns produces the full report. ok is false when any gated
// metric regressed, when B fails more operations than A, or when B
// cannot answer for something A measured: a workload or a gated metric
// B lacks, or a pair whose two runs did not do the same work.
func compareRuns(a, b []historyRow) (rows []comparison, notes []string, ok bool) {
	ok = true
	refuse := func(format string, args ...any) {
		notes = append(notes, fmt.Sprintf(format, args...))
		ok = false
	}
	ga, gb := groupRuns(a), groupRuns(b)
	for _, g := range sortedGroups(gb) {
		if len(ga[g]) == 0 {
			notes = append(notes, fmt.Sprintf("%s: no runs in A; B's %d runs are not compared", g, len(gb[g])))
		}
	}
groups:
	for _, g := range sortedGroups(ga) {
		ra, rb := ga[g], gb[g]
		if len(rb) == 0 {
			if g.traced { // a traced run gates nothing, so neither does its absence
				notes = append(notes, fmt.Sprintf("%s: no runs in B", g))
			} else {
				refuse("%s: no runs in B", g)
			}
			continue
		}
		if len(ra) != len(rb) {
			notes = append(notes, fmt.Sprintf("%s: %d runs in A, %d in B; the extra ones are unpaired", g, len(ra), len(rb)))
		}
		n := min(len(ra), len(rb))
		ra, rb = ra[:n], rb[:n]
		for i := range ra {
			if why := sameWork(ra[i].Provenance, rb[i].Provenance); why != "" {
				refuse("%s: pair %d did not do the same work (%s); not compared", g, i, why)
				continue groups
			}
		}
		for i := range ra {
			if sa, sb := ra[i].Provenance.Seed, rb[i].Provenance.Seed; sa != sb {
				notes = append(notes, fmt.Sprintf("%s: pair %d ran seed %d against seed %d (and maybe others); same-seed pairs share their inputs exactly", g, i, sa, sb))
				break
			}
		}
		if n < minPairs {
			notes = append(notes, fmt.Sprintf("%s: %d pairs, fewer than the %d an \"improved\" verdict needs", g, n, minPairs))
		}
		if af, bf := orderCounts(ra, rb); n > 1 && (af == 0 || bf == 0) {
			notes = append(notes, fmt.Sprintf("%s: every pair ran the same side first (A first %d, B first %d); alternate the order", g, af, bf))
		}
		if fa, fb := failureRatio(ra), failureRatio(rb); fb > fa {
			refuse("%s: failed_ops_ratio rose from %.6f to %.6f", g, fa, fb)
		}
		names := map[string]bool{}
		for _, r := range ra {
			for name := range r.Metrics {
				names[name] = true
			}
		}
		for _, name := range sortedKeys(names) {
			def, known := findMetric(name)
			if !known {
				continue
			}
			if g.traced {
				def.Bound = 0 // end-to-end verdicts come from untraced runs only
			}
			var va, vb []float64
			for i := range ra {
				x, okA := ra[i].Metrics[name]
				y, okB := rb[i].Metrics[name]
				if okA && okB {
					va, vb = append(va, x), append(vb, y)
				} else if okA && def.Bound > 0 {
					refuse("%s: B's run %d lacks the gated metric %s", g, i, name)
				}
			}
			if len(va) == 0 {
				continue
			}
			c := compareMetric(def, va, vb)
			c.Workload = g.String()
			if c.Verdict == verdictRegressed {
				ok = false
			}
			rows = append(rows, c)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		gi, gj := rows[i].Verdict != verdictInfo, rows[j].Verdict != verdictInfo
		if rows[i].Workload != rows[j].Workload {
			return rows[i].Workload < rows[j].Workload
		}
		return gi && !gj
	})
	return rows, notes, ok
}

func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := loadRuns(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no runs", pathA)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	b, err := loadRuns(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	rows, notes, ok := compareRuns(a, b)
	fmt.Fprintf(w, "%-18s %-34s %5s %14s %14s %9s %9s %7s  %s\n",
		"workload", "metric", "pairs", "median A", "median B", "IQR A %", "IQR B %", "B wins", "verdict")
	for _, c := range rows {
		fmt.Fprintf(w, "%-18s %-34s %5d %14s %14s %9.2f %9.2f %4d/%-2d  %s\n",
			c.Workload, c.Metric, c.Pairs, formatValue(c.MedianA), formatValue(c.MedianB),
			100*spread(c.Q3A-c.Q1A, c.MedianA), 100*spread(c.Q3B-c.Q1B, c.MedianB),
			c.WinsB, c.Pairs, c.Verdict)
	}
	for _, n := range notes {
		fmt.Fprintln(w, "note:", n)
	}
	if !ok {
		fmt.Fprintln(w, "RESULT: regression, more failed operations, or runs that cannot be compared (see notes)")
		return 1
	}
	fmt.Fprintln(w, "RESULT: no regression")
	return 0
}
