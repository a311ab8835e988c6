package main

import (
	"hash/fnv"
	"testing"
)

// batchFingerprint hashes a batch the way the cluster's staged-batch
// dedupe does: every key and value, in order.
func batchFingerprint(msgs []message) uint64 {
	h := fnv.New64a()
	for _, m := range msgs {
		h.Write(m.Key)
		h.Write([]byte{0})
		h.Write(m.Value)
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func TestLapShiftNeverRepeatsABatch(t *testing.T) {
	pl, err := buildPool(3, 2, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.batches) < 4 {
		t.Fatalf("pool has only %d batches", len(pl.batches))
	}
	seen := map[uint64]int{}
	var obs []observation
	var msgs []message
	const laps = 3
	for k := 0; k < laps*len(pl.batches); k++ {
		_, obs = pl.batch(k, obs)
		msgs, _ = encodeBatch(msgs[:0], obs)
		fp := batchFingerprint(msgs)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("batch %d repeats the content of batch %d: the cluster would dedupe it", k, prev)
		}
		seen[fp] = k
	}
}

func TestLapShiftMovesOnlyTimestamps(t *testing.T) {
	pl, err := buildPool(3, 2, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	n := len(pl.batches)
	_, first := pl.batch(1, nil)
	_, lapped := pl.batch(1+2*n, nil)
	if len(first) != len(lapped) {
		t.Fatalf("lapped batch has %d records, original %d", len(lapped), len(first))
	}
	for i := range first {
		if got := lapped[i].Ts.Sub(first[i].Ts); got != 2*lapSpan {
			t.Fatalf("record %d shifted by %v, want %v", i, got, 2*lapSpan)
		}
		a, b := first[i], lapped[i]
		a.Ts = b.Ts
		if a != b {
			t.Fatalf("record %d differs beyond its timestamp: %+v vs %+v", i, first[i], lapped[i])
		}
	}
	// The pool itself must be untouched by handing out shifted copies.
	_, again := pl.batch(1, nil)
	if again[0].Ts != first[0].Ts {
		t.Error("lapping mutated the pool")
	}
	if got := pl.eventTime(1 + 2*n); got != lapped[len(lapped)-1].Ts {
		t.Errorf("eventTime = %v, want the batch's last timestamp %v", got, lapped[len(lapped)-1].Ts)
	}
}

func TestPoolIsSeeded(t *testing.T) {
	a, err := buildPool(11, 2, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := buildPool(11, 2, 64, true)
	c, _ := buildPool(12, 2, 64, true)
	if a.records != b.records || a.batches[3].obs[5] != b.batches[3].obs[5] {
		t.Error("same seed gave different pools")
	}
	same := true
	for i := range a.batches[0].obs {
		if a.batches[0].obs[i].Value != c.batches[0].obs[i].Value {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave the same values")
	}
}
