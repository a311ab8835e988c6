// Package cq is the continuous-query engine: standing queries over the
// STREAM tier whose results are maintained incrementally as records are
// published, so a dashboard refresh is an O(window) memory lookup
// instead of a LAKE scan — the paper's in-situ thesis ("move the
// analysis to the data") applied to the serving path, in the style of
// DCDB Wintermute's online operators and the SENSEI in-situ pattern.
//
// A caller registers a Spec — the same shape tsdb.Query has (group-by
// dims, agg, granularity, filters) plus a sliding or tumbling window —
// and the engine keeps an in-memory materialized view up to date as a
// Pump drains the bronze topics. Reads are served from the view at
// memory speed; watchers are pushed updates over SSE or long-poll via
// the portal (internal/httpapi).
//
// # Equivalence guarantee
//
// A view's frame is byte-identical — bit-for-bit float equality, proven
// by a randomized property test — to what tsdb.Run would return over a
// store rebuilt by partition-major replay of the same bronze records
// (core.ReplayBronzeToLake's order: topics ascending, each partition
// fully, offsets ascending). Float aggregation is order-sensitive, so
// this takes a structural argument, not just matching math:
//
//   - View state is the LAKE's own cell type in the LAKE's geometry:
//     one tsdb.CellTable of rollup cells (keyed by bucket ts, system,
//     source, component, metric) per time chunk of SegmentDuration and
//     (topic, partition), striped across tsdb.NumStripes by the
//     tsdb.SeriesHash that also seeds the table probe. Cells are
//     appended in arrival order per (topic, partition).
//   - Producers key records by component, so every series lives in
//     exactly one partition of one topic ("per-series partition
//     affinity") and the broker preserves per-partition order. Each
//     cell therefore sees the same Cell.Add sequence the LAKE's ingest
//     path would apply, regardless of how Poll interleaves partitions.
//   - A read is a feeder of tsdb's aggregation kernel
//     (internal/tsdb/kernel.go) — alongside the hot shard scan, the cold
//     tier's row groups and the cluster's remote stripe partials — not a
//     copy of it: it hands each table's pages of (keys, cells) slices
//     to GroupTable.Fold in stripe order, then chunk order, then (topic,
//     partition) order, then insertion order — exactly the first-touch
//     enumeration a partition-major replay produces in tsdb's own
//     segments — and merges stripe partials (GroupTable.Merge) and
//     emits (Plan.Frame) with the same code Run executes. Only the
//     feeding order is cq's to get right; the property test guards it.
//
// Views are crash-consistent: a Pump checkpoints consumer offsets and
// full view state in one atomic file (internal/atomicfile), and applies
// records strictly before checkpointing, so a crash replays the
// un-checkpointed suffix into pre-suffix state — exactly-once, proven
// across a kill/restart cycle by the same property test.
package cq

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"time"

	"odakit/internal/tsdb"
)

// WindowKind selects how a view's time window advances.
type WindowKind int

const (
	// WindowSliding keeps the trailing Window ending at the watermark's
	// rollup bucket: [to-Window, to) slides forward with every record.
	WindowSliding WindowKind = iota
	// WindowTumbling keeps the current Window-aligned epoch bucket:
	// [floor(wm, Window), floor(wm, Window)+Window) jumps forward when
	// the watermark crosses a window boundary.
	WindowTumbling
)

func (k WindowKind) String() string {
	if k == WindowTumbling {
		return "tumbling"
	}
	return "sliding"
}

// AlertSpec attaches threshold and anomaly alerting to a view. Alerts
// are evaluated per group whenever a granularity bucket closes (the
// watermark passes its end).
type AlertSpec struct {
	// Above/Below fire when a closed bucket's value crosses the bound.
	// nil disables the bound.
	Above, Below *float64
	// MaxScore fires when the online anomaly score (a guarded z-score
	// from internal/telemetry's detector, over forecast residuals when
	// Season is set) reaches the bound. 0 disables scoring.
	MaxScore float64
	// Season, when >= 2, fits a Holt-Winters forecaster (internal/
	// forecast) with this many buckets per season and scores residuals
	// against the forecast instead of raw values.
	Season int
}

// Spec describes one standing query: the tsdb.Query shape minus the
// fixed time range, plus a window that tracks the stream's watermark.
type Spec struct {
	// Name is a human label; the content-addressed ID is derived from
	// the query shape, not the name.
	Name string
	// Filters, GroupBy, Granularity, Agg have tsdb.Query semantics.
	Filters     map[string][]string
	GroupBy     []string
	Granularity time.Duration
	Agg         tsdb.AggKind
	// Window is the view width. It is rounded up to a whole number of
	// rollup intervals so window edges land on cell boundaries.
	Window time.Duration
	// Kind selects sliding (default) or tumbling advancement.
	Kind WindowKind
	// Alert, when non-nil, enables threshold/anomaly alerting.
	Alert *AlertSpec
}

var validDims = map[string]bool{
	tsdb.DimSystem: true, tsdb.DimSource: true,
	tsdb.DimComponent: true, tsdb.DimMetric: true,
}

func (s Spec) validate() error {
	if s.Window <= 0 {
		return fmt.Errorf("cq: spec needs a positive window")
	}
	if s.Granularity < 0 {
		return fmt.Errorf("cq: negative granularity")
	}
	if s.Granularity > s.Window {
		return fmt.Errorf("cq: granularity %s exceeds window %s", s.Granularity, s.Window)
	}
	if len(s.GroupBy) > 4 {
		return fmt.Errorf("cq: too many group-by dimensions")
	}
	seen := map[string]bool{}
	for _, d := range s.GroupBy {
		if !validDims[d] {
			return fmt.Errorf("cq: unknown group-by dimension %q", d)
		}
		if seen[d] {
			return fmt.Errorf("cq: duplicate group-by dimension %q", d)
		}
		seen[d] = true
	}
	for d := range s.Filters {
		if !validDims[d] {
			return fmt.Errorf("cq: unknown filter dimension %q", d)
		}
	}
	if s.Kind != WindowSliding && s.Kind != WindowTumbling {
		return fmt.Errorf("cq: unknown window kind %d", s.Kind)
	}
	if a := s.Alert; a != nil {
		for _, b := range []*float64{a.Above, a.Below, &a.MaxScore} {
			if b != nil && (math.IsNaN(*b) || math.IsInf(*b, 0)) {
				return fmt.Errorf("cq: alert bound %g is not finite: it could never fire", *b)
			}
		}
		if a.MaxScore < 0 {
			return fmt.Errorf("cq: negative alert score bound")
		}
		if a.Season == 1 || a.Season < 0 {
			return fmt.Errorf("cq: alert season must be 0 or >= 2")
		}
	}
	return nil
}

// fingerprint canonicalizes the query shape (name excluded) so the same
// logical standing query registered twice — from any client — resolves
// to the same view, mirroring the prepared-statement registry's
// content-addressed handles.
func (s Spec) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "agg=%d;gran=%d;win=%d;kind=%d;", s.Agg, s.Granularity, s.Window, s.Kind)
	b.WriteString("group=")
	for _, d := range s.GroupBy {
		b.WriteString(d)
		b.WriteByte(',')
	}
	dims := make([]string, 0, len(s.Filters))
	for d := range s.Filters {
		dims = append(dims, d)
	}
	sort.Strings(dims)
	for _, d := range dims {
		vals := append([]string(nil), s.Filters[d]...)
		sort.Strings(vals)
		fmt.Fprintf(&b, ";f:%s=", d)
		for _, v := range vals {
			fmt.Fprintf(&b, "%d:%s,", len(v), v)
		}
	}
	if a := s.Alert; a != nil {
		fmt.Fprintf(&b, ";alert=%v,%v,%g,%d", ptrStr(a.Above), ptrStr(a.Below), a.MaxScore, a.Season)
	}
	return b.String()
}

func ptrStr(p *float64) string {
	if p == nil {
		return "-"
	}
	return fmt.Sprintf("%g", *p)
}

// viewID derives the content-addressed view ID ("cq" + 16 hex digits).
func viewID(s Spec) string {
	h := fnv.New64a()
	h.Write([]byte(s.fingerprint()))
	return fmt.Sprintf("cq%016x", h.Sum64())
}

// ceilMul rounds d up to a whole multiple of unit.
func ceilMul(d, unit int64) int64 {
	if unit <= 0 {
		return d
	}
	if r := tsdb.FloorMod(d, unit); r != 0 {
		return d + unit - r
	}
	return d
}
