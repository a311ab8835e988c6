package stream

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// sizedBatch is n messages with keyLen-byte keys and valueLen-byte values.
func sizedBatch(n, keyLen, valueLen int) []Message {
	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i].Key = []byte(fmt.Sprintf("%0*d", keyLen, i))
		msgs[i].Value = make([]byte, valueLen)
	}
	return msgs
}

// TestPartitionSizesOnce holds the log to "each byte is allocated once":
// filling a retention-bounded partition to three times its retention
// allocates little more than the arenas and indexes of what was appended
// (a queue that re-grew or re-copied records would show here), and once
// retention bounds the live set a batch allocates its arena and its
// index and nothing else — the chunk queue has stopped growing.
func TestPartitionSizesOnce(t *testing.T) {
	const batch, keyLen, valueLen = 512, 16, 112 // a 64 KiB arena and a 4 KiB index per batch
	cfg := TopicConfig{RetentionBytes: 4 << 20}
	p := newPartition("t", 0)
	msgs := sizedBatch(batch, keyLen, valueLen)
	ts := time.Unix(1_700_000_000, 0)
	appendOne := func() {
		if _, err := p.appendBatch(ts, msgs, cfg); err != nil {
			t.Fatal(err)
		}
	}
	const perBatch = batch * (keyLen + valueLen + 8)
	fill := int(3 * cfg.RetentionBytes / (batch * (keyLen + valueLen + 32)))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < fill; i++ {
		appendOne()
	}
	runtime.ReadMemStats(&after)
	allocated, appended := after.TotalAlloc-before.TotalAlloc, uint64(fill*perBatch)
	t.Logf("%d batches: %d bytes allocated for %d of arena + index (%.2fx), %d chunks queued",
		fill, allocated, appended, float64(allocated)/float64(appended), p.nq)
	if float64(allocated) > 1.3*float64(appended) {
		t.Errorf("filling to 3x retention allocated %d bytes, over 1.3x the %d appended", allocated, appended)
	}
	if p.bytes > cfg.RetentionBytes || p.count == 0 {
		t.Fatalf("retention holds %d bytes in %d records, bound %d", p.bytes, p.count, cfg.RetentionBytes)
	}

	queue := len(p.q)
	if allocs := testing.AllocsPerRun(100, appendOne); allocs > 2 {
		t.Errorf("a steady-state batch makes %.0f allocations, want the arena and the index", allocs)
	}
	if len(p.q) != queue {
		t.Errorf("the chunk queue grew from %d to %d slots under a bounded live set", queue, len(p.q))
	}
}

var benchSink []Record

// BenchmarkPartitionAppendFetch is the log on its own: append 512-record
// batches of 65-byte records under 8 MiB retention (the harness's topic
// shape) and fetch each one back as one page. "fresh" fetches into a new
// page each time (FetchNoWait, as the harness's fetch rung does);
// "reused" appends into the headers of the last page, as a plane.Reader
// does.
func BenchmarkPartitionAppendFetch(b *testing.B) {
	for _, reuse := range []bool{false, true} {
		name := "fresh"
		if reuse {
			name = "reused"
		}
		b.Run(name, func(b *testing.B) { benchAppendFetch(b, reuse) })
	}
}

func benchAppendFetch(b *testing.B, reuse bool) {
	const batch = 512
	br := NewBroker()
	defer br.Close()
	if err := br.CreateTopic("t", TopicConfig{Partitions: 1, RetentionBytes: 8 << 20}); err != nil {
		b.Fatal(err)
	}
	msgs := sizedBatch(batch, 9, 56)
	var page []Record
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first, err := br.PublishBatchTo("t", 0, msgs)
		if err != nil {
			b.Fatal(err)
		}
		var recs []Record
		if reuse {
			recs, err = br.AppendRecords(page[:0], "t", 0, first, batch)
		} else {
			recs, err = br.FetchNoWait("t", 0, first, batch)
		}
		if err != nil || len(recs) != batch {
			b.Fatalf("fetched %d of %d records: %v", len(recs), batch, err)
		}
		benchSink = recs
		if reuse {
			KeepPage(&page, recs)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*batch), "B/record")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/record")
}
