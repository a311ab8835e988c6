package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "batch", Start: 0, End: 100, Parent: -1, Req: 0},
		{Name: "schema.encode", Start: 5, End: 35, Parent: 0, Req: 0},
		{Name: "stream.publish", Start: 35, End: 75, Parent: 0, Req: 0},
		{Name: "wal.sync", Start: 40, End: 60, Parent: 2, Req: 0},
		{Name: "batch", Start: 100, End: 150, Parent: -1, Req: 1},
		{Name: "schema.encode", Start: 100, End: 140, Parent: 4, Req: 1},
		{Name: "open", Start: 150, End: -1, Parent: -1, Req: 2}, // never ended: ignored
	}
	got := selfTimes(spans)
	for name, want := range map[string]struct {
		count       int
		total, self int64
	}{
		"batch":          {2, 150, 30 + 10}, // 100-30-40, 50-40
		"schema.encode":  {2, 70, 70},
		"stream.publish": {1, 40, 20}, // minus its wal.sync child
		"wal.sync":       {1, 20, 20},
	} {
		lt := got[name]
		if lt == nil {
			t.Errorf("no aggregate for %s", name)
			continue
		}
		if lt.Count != want.count || lt.Total != want.total || lt.Self != want.self {
			t.Errorf("%s: count %d total %d self %d; want %d %d %d",
				name, lt.Count, lt.Total, lt.Self, want.count, want.total, want.self)
		}
	}
	if _, ok := got["open"]; ok {
		t.Error("an unfinished span was aggregated")
	}
}

func TestSelfTimeClipsChildToParent(t *testing.T) {
	// A replayed child measured longer than its parent must not drive the
	// parent's self time negative.
	spans := []span{
		{Name: "gateway", Start: 0, End: 50, Parent: -1},
		{Name: "httpapi", Start: 0, End: 80, Parent: 0},
	}
	got := selfTimes(spans)
	if got["gateway"].Self != 0 {
		t.Errorf("gateway self = %d, want 0", got["gateway"].Self)
	}
	if got["httpapi"].Self != 80 {
		t.Errorf("httpapi self = %d, want 80", got["httpapi"].Self)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	if err := writeTrace(t.TempDir(), "w", provenance{}, nil, nil); err != nil {
		t.Errorf("writeTrace(nil tracer) = %v", err)
	}
}

func TestWriteTraceCapsSpansKeepsAggregates(t *testing.T) {
	tr := newTracer()
	for i := 0; i < maxTraceSpans+10; i++ {
		tr.end(tr.begin("batch", -1, i))
	}
	dir := t.TempDir()
	if err := writeTrace(dir, "ingest_local", provenance{Seed: 7}, tr, []ladderRow{{Rung: "schema.encode"}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace-ingest_local.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) != maxTraceSpans || tf.SpanCount != maxTraceSpans+10 {
		t.Errorf("file holds %d spans of %d", len(tf.Spans), tf.SpanCount)
	}
	if tf.Layers["batch"].Count != maxTraceSpans+10 {
		t.Errorf("aggregate covers %d spans, want all %d", tf.Layers["batch"].Count, maxTraceSpans+10)
	}
	if tf.Provenance.Seed != 7 || len(tf.Ladder) != 1 {
		t.Errorf("provenance/ladder not carried: %+v", tf.Provenance)
	}
}
