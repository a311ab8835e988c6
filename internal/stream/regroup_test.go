package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// mixedBatch builds n messages, roughly one in four keyless, each value
// unique under tag so a record can be traced back to its batch.
func mixedBatch(rng *rand.Rand, tag string, n, keys int) []Message {
	msgs := make([]Message, n)
	for i := range msgs {
		if rng.Intn(4) > 0 {
			msgs[i].Key = fmt.Appendf(nil, "node-%03d", rng.Intn(keys))
		}
		msgs[i].Value = fmt.Appendf(nil, "%s-%05d", tag, i)
	}
	return msgs
}

// appendRegroup is the regroup RouteBatch replaced: route each message in
// batch order, append it to its partition's own slice.
func appendRegroup(rr *atomic.Uint64, msgs []Message, parts int) [][]Message {
	byPart := make([][]Message, parts)
	for _, m := range msgs {
		p := route(rr, m.Key, parts)
		byPart[p] = append(byPart[p], m)
	}
	return byPart
}

// TestRouteBatchMatchesAppendRegroup: for random mixed batches and
// partition counts the counting sort yields, per partition, exactly the
// messages and order the append loop did — keyed placement is
// KeyPartition, the keyless round-robin sequence is the same cursor walk
// — and a batch that lands on one partition is handed back uncopied.
func TestRouteBatchMatchesAppendRegroup(t *testing.T) {
	rng := rand.New(rand.NewSource(20240601))
	for _, parts := range []int{1, 2, 3, 4, 7, 16} {
		var rr, refRR atomic.Uint64
		for b := 0; b < 40; b++ {
			msgs := mixedBatch(rng, fmt.Sprintf("b%d", b), 1+rng.Intn(600), 1+rng.Intn(40))
			want := appendRegroup(&refRR, msgs, parts)
			got := RouteBatch(&rr, msgs, parts)
			touched := 0
			for p := 0; p < parts; p++ {
				g := got.Group(p)
				if len(g) != len(want[p]) || (len(g) > 0 && !reflect.DeepEqual(g, want[p])) {
					t.Fatalf("parts=%d batch %d partition %d: regroup differs from the append loop", parts, b, p)
				}
				for _, m := range g {
					if len(m.Key) > 0 && KeyPartition(m.Key, parts) != p {
						t.Fatalf("parts=%d: key %q on partition %d, KeyPartition says %d", parts, m.Key, p, KeyPartition(m.Key, parts))
					}
				}
				if len(g) > 0 {
					touched++
					if (touched == 1 && len(g) == len(msgs)) != (&g[0] == &msgs[0]) {
						t.Fatalf("parts=%d batch %d: one-partition batch copied, or split batch aliased", parts, b)
					}
				}
			}
			ReleaseBatch(got)
			if rr.Load() != refRR.Load() {
				t.Fatalf("parts=%d batch %d: round-robin cursor at %d, append loop at %d", parts, b, rr.Load(), refRR.Load())
			}
		}
	}
}

// TestRegroupClearDropsBatch: a cleared Regroup holds no message of the
// batch it sorted, so the pool can neither pin a caller's buffers nor leak
// one batch into the next.
func TestRegroupClearDropsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var rr atomic.Uint64
	var r Regroup[Message]
	msgs := mixedBatch(rng, "x", 300, 32)
	r.Sort(msgs, 4, func(m *Message) int { return route(&rr, m.Key, 4) })
	r.Clear()
	for i, m := range r.buf[:cap(r.buf)] {
		if m.Key != nil || m.Value != nil {
			t.Fatalf("scratch slot %d still holds %q after Clear", i, m.Value)
		}
	}
	r.Sort(msgs[:10], 4, func(m *Message) int { return 2 })
	r.Clear()
	if string(msgs[0].Value) != "x-00000" {
		t.Fatal("Clear wiped the caller's slice after an uncopied one-group sort")
	}
}

// partitionValues reads every partition's values in offset order.
func partitionValues(t *testing.T, b *Broker, topic string, parts int) [][]string {
	t.Helper()
	out := make([][]string, parts)
	for p := range out {
		recs, err := b.FetchNoWait(topic, p, 0, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			out[p] = append(out[p], string(r.Value))
		}
	}
	return out
}

// TestBrokerPublishBatchRegroupProperty: PublishBatch leaves every
// partition log identical to publishing the same messages one at a time,
// keyless ones included, and under a fault on one partition's sub-batch
// Failed is exactly that partition's messages in batch order — a slice of
// its own, untouched by the batches that follow.
func TestBrokerPublishBatchRegroupProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20240601))
	const topic, parts = "t", 4
	b, ref := NewBroker(), NewBroker()
	defer b.Close()
	defer ref.Close()
	for _, br := range []*Broker{b, ref} {
		if err := br.CreateTopic(topic, TopicConfig{Partitions: parts}); err != nil {
			t.Fatal(err)
		}
	}
	var shadowRR atomic.Uint64 // walks the keyless cursor alongside the broker's
	type kept struct {
		failed []Message
		was    string
	}
	var keptFailed []kept
	for batch := 0; batch < 30; batch++ {
		msgs := mixedBatch(rng, fmt.Sprintf("b%d", batch), 1+rng.Intn(300), 24)
		byPart := appendRegroup(&shadowRR, msgs, parts)
		if batch%3 == 2 {
			// Fail the k-th sub-batch the broker visits, whichever
			// partition its staggered walk makes that.
			k, calls := rng.Intn(2), 0
			b.SetFaultHook(func(op, _ string) error {
				calls++
				if op == "broker.publish" && calls-1 == k {
					return errors.New("injected")
				}
				return nil
			})
		}
		n, err := b.PublishBatch(topic, msgs)
		b.SetFaultHook(nil)
		failedPart := -1
		var ppe *PartialPublishError
		if errors.As(err, &ppe) {
			for p := range byPart {
				if reflect.DeepEqual(byPart[p], ppe.Failed) {
					failedPart = p
				}
			}
			if failedPart < 0 || n != len(msgs)-len(ppe.Failed) {
				t.Fatalf("batch %d: Failed (%d msgs, %d published) is no partition's sub-batch", batch, len(ppe.Failed), n)
			}
			keptFailed = append(keptFailed, kept{ppe.Failed, fmt.Sprint(ppe.Failed)})
		} else if err != nil {
			t.Fatal(err)
		}
		// The reference takes the landed sub-batches one message at a time;
		// PublishBatchTo names the partition, so its own cursor never matters.
		for p := range byPart {
			if p == failedPart {
				continue
			}
			for _, m := range byPart[p] {
				if _, err := ref.PublishBatchTo(topic, p, one(m.Key, m.Value)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if len(keptFailed) == 0 {
		t.Fatal("no partial publish occurred")
	}
	for _, k := range keptFailed {
		if fmt.Sprint(k.failed) != k.was {
			t.Fatal("a PartialPublishError's Failed changed under later batches: it aliases the pooled scratch")
		}
	}
	if got, want := partitionValues(t, b, topic, parts), partitionValues(t, ref, topic, parts); !reflect.DeepEqual(got, want) {
		t.Fatal("batch publish and per-message publish left different partition logs")
	}
}

// TestPublishBatchConcurrentScratchIsolation: publishers sharing the
// pooled regroup scratch, each on its own topic, find exactly their own
// records in their own order — run under -race, which also flags any
// scratch handed to two batches at once.
func TestPublishBatchConcurrentScratchIsolation(t *testing.T) {
	const publishers, batches, parts = 6, 60, 4
	b := NewBroker()
	defer b.Close()
	var wg sync.WaitGroup
	for g := 0; g < publishers; g++ {
		topic := fmt.Sprintf("t%d", g)
		if err := b.CreateTopic(topic, TopicConfig{Partitions: parts}); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < batches; i++ {
				msgs := mixedBatch(rng, fmt.Sprintf("p%d-b%03d", g, i), 1+rng.Intn(200), 16)
				if _, err := b.PublishBatch(topic, msgs); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < publishers; g++ {
		rng := rand.New(rand.NewSource(int64(g)))
		var rr atomic.Uint64
		want := make([][]string, parts)
		for i := 0; i < batches; i++ {
			msgs := mixedBatch(rng, fmt.Sprintf("p%d-b%03d", g, i), 1+rng.Intn(200), 16)
			for p, sub := range appendRegroup(&rr, msgs, parts) {
				for _, m := range sub {
					want[p] = append(want[p], string(m.Value))
				}
			}
		}
		if got := partitionValues(t, b, fmt.Sprintf("t%d", g), parts); !reflect.DeepEqual(got, want) {
			t.Fatalf("publisher %d: its topic does not hold exactly its own records in order", g)
		}
	}
}
