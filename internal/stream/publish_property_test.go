package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestPartialPublishResumeProperty is a property test for the
// PartialPublishError resume contract that core.publishRetry relies on:
// for random batch shapes and randomly injected per-partition publish
// failures, retrying with exactly the Failed remainder must converge to
// a log that is byte-identical — per partition, offsets, keys, and
// values — to a fault-free run. No duplicates, no drops, no reordering.
func TestPartialPublishResumeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20240601))
	injectedTotal := 0
	partialTotal := 0
	for trial := 0; trial < 25; trial++ {
		seed := rng.Int63()
		inj, partials := resumeTrial(t, seed)
		injectedTotal += inj
		partialTotal += partials
	}
	// The property is vacuous if the chaos never fired.
	if injectedTotal == 0 {
		t.Fatal("no publish faults were injected across any trial")
	}
	if partialTotal == 0 {
		t.Fatal("no partial publishes occurred: resume path never exercised")
	}
}

func resumeTrial(t *testing.T, seed int64) (injected, partials int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const topic = "bronze.prop"

	// Random batch shapes: a handful of batches, each with a random
	// record count and keys spread over enough nodes to hit every
	// partition.
	var batches [][]Message
	seq := 0
	for i, nb := 0, 1+rng.Intn(8); i < nb; i++ {
		n := 1 + rng.Intn(50)
		batch := make([]Message, 0, n)
		for j := 0; j < n; j++ {
			batch = append(batch, Message{
				Key:   fmt.Appendf(nil, "node-%02d", rng.Intn(13)),
				Value: fmt.Appendf(nil, "rec-%06d", seq),
			})
			seq++
		}
		batches = append(batches, batch)
	}

	run := func(faulty bool) map[int][]string {
		b := NewBroker()
		defer b.Close()
		if err := b.CreateTopic(topic, TopicConfig{Partitions: 4}); err != nil {
			t.Fatal(err)
		}
		if faulty {
			// An independent deterministic stream decides which partition
			// sub-batches fail; the publisher below must mask every one.
			frng := rand.New(rand.NewSource(seed ^ 0x5eed))
			b.SetFaultHook(func(op, target string) error {
				if op == "broker.publish" && frng.Float64() < 0.35 {
					injected++
					return errors.New("injected publish fault")
				}
				return nil
			})
		}
		for _, batch := range batches {
			// The resume idiom from core.publishRetry: on partial failure
			// retry exactly the unpublished remainder, never the whole batch.
			pending := batch
			for attempt := 0; ; attempt++ {
				if attempt > 10_000 {
					t.Fatalf("publish did not converge after %d attempts", attempt)
				}
				_, err := b.PublishBatch(topic, pending)
				if err == nil {
					break
				}
				var pp *PartialPublishError
				if errors.As(err, &pp) {
					if len(pp.Failed) == 0 {
						t.Fatal("PartialPublishError with empty Failed")
					}
					partials++
					pending = pp.Failed
				}
			}
		}

		// Drain every partition into offset:key:value triples.
		out := map[int][]string{}
		parts, err := b.Partitions(topic)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < parts; p++ {
			end, err := b.EndOffset(topic, p)
			if err != nil {
				t.Fatal(err)
			}
			for off := int64(0); off < end; {
				recs, err := b.FetchNoWait(topic, p, off, 1024)
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) == 0 {
					break
				}
				for _, r := range recs {
					out[p] = append(out[p], fmt.Sprintf("%d:%s:%s", r.Offset, r.Key, r.Value))
					off = r.Offset + 1
				}
			}
		}
		return out
	}

	want := run(false)
	got := run(true)
	if !reflect.DeepEqual(got, want) {
		for p := range want {
			if !reflect.DeepEqual(got[p], want[p]) {
				t.Errorf("seed %d partition %d diverged:\n faulty: %v\n clean:  %v",
					seed, p, got[p], want[p])
			}
		}
		t.Fatalf("seed %d: faulty run log != fault-free run log", seed)
	}
	return injected, partials
}
