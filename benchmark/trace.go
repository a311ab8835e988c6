package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (the program itself is not instrumented). Times are
// nanoseconds since the tracer's epoch. Spans of one batch or request
// share Req; Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the measured loops carry one
// nil check per call site and nothing else.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index (-1 when untraced).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Start: time.Since(t.epoch).Nanoseconds(), End: -1, Parent: parent, Req: req,
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.epoch).Nanoseconds()
}

// add records an already-timed span (for calls timed on their own clock,
// like a socket round trip replayed in-process).
func (t *tracer) add(name string, start time.Time, d time.Duration, parent, req int) int {
	if t == nil {
		return -1
	}
	s := start.Sub(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + d.Nanoseconds(), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// child returns a tracer on the same clock for another goroutine to fill:
// two goroutines never append to one span list. nil stays nil.
func (t *tracer) child() *tracer {
	if t == nil {
		return nil
	}
	return &tracer{epoch: t.epoch}
}

// absorb appends a child's spans, re-basing their parent indexes.
func (t *tracer) absorb(c *tracer) {
	if t == nil || c == nil {
		return
	}
	base := len(t.spans)
	for _, s := range c.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// layerTime is one span name's aggregate over a run.
type layerTime struct {
	Count int   `json:"count"`
	Total int64 `json:"total_ns"`
	Self  int64 `json:"self_ns"`
}

// selfTimes aggregates spans by name: total duration, and self time —
// the span's duration minus the part of it its child spans cover.
// Children of one parent do not overlap (the harness calls layers one
// after another), so covered time is the sum of child durations clipped
// to the parent.
func selfTimes(spans []span) map[string]*layerTime {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent < 0 || s.End < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			covered[s.Parent] += hi - lo
		}
	}
	out := map[string]*layerTime{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		self := d - covered[i]
		if self < 0 {
			self = 0
		}
		lt.Count++
		lt.Total += d
		lt.Self += self
	}
	return out
}

// maxTraceSpans caps what a trace file holds: aggregates cover every
// span, the file keeps the first spans of the run for inspection.
const maxTraceSpans = 8192

type traceFile struct {
	Provenance provenance            `json:"provenance"`
	Workload   string                `json:"workload"`
	Layers     map[string]*layerTime `json:"layers"`
	Ladder     []ladderRow           `json:"ladder,omitempty"`
	SpanCount  int                   `json:"span_count"`
	Spans      []span                `json:"spans"`
}

func writeTrace(dir, workload string, prov provenance, t *tracer, ladder []ladderRow) error {
	if t == nil {
		return nil
	}
	tf := traceFile{
		Provenance: prov, Workload: workload, Layers: selfTimes(t.spans),
		Ladder: ladder, SpanCount: len(t.spans), Spans: t.spans,
	}
	if len(tf.Spans) > maxTraceSpans {
		tf.Spans = tf.Spans[:maxTraceSpans]
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
