package sproc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"odakit/internal/cq"
	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
)

// Property: a pump killed repeatedly mid-stream — open windows spanning
// every crash — and restarted from its checkpoint sinks exactly the
// windows an uninterrupted run sinks. (The test's name is older than the
// deletion of sliding windows; the windows it crashes through tumble.)
// The sink is at-least-once, so a window sunk again after a restart is
// dropped by its start before the comparison.
//
// Determinism notes: records are keyed by component, so every (component,
// metric) group lives in one partition and its fold order is fixed;
// back-jitter stays under Lateness so no run drops late records; windows
// sink in ascending start order with sorted group keys, so concatenated
// sink rows are comparable row-by-row.

func crashPump(t testing.TB, b *stream.Broker, name, dir string, sink func(*schema.Frame) error) *cq.Pump {
	t.Helper()
	p, _ := windowPump(t, b, name, dir, windowSpec{window: 20 * time.Second, lateness: 10 * time.Second, agg: tsdb.AggSum,
		groupBy: []string{tsdb.DimComponent, tsdb.DimMetric}}, sink)
	return p
}

type propRecord struct {
	sec    int
	node   string
	metric string
	value  float64
}

func randomRecords(rng *rand.Rand, n int) []propRecord {
	nodes := []string{"node0", "node1", "node2", "node3"}
	metrics := []string{"power", "temp"}
	out := make([]propRecord, 0, n)
	sec, maxSec := 0, 0
	for i := 0; i < n; i++ {
		// Mostly forward, occasionally back — but never more than 8s
		// (< Lateness) behind the max ever emitted, so no run can drop a
		// record as late and micro-batch boundaries stay irrelevant.
		if rng.Intn(5) == 0 {
			sec = maxSec - rng.Intn(8)
			if sec < 0 {
				sec = 0
			}
		} else {
			sec = maxSec + rng.Intn(4)
		}
		if sec > maxSec {
			maxSec = sec
		}
		out = append(out, propRecord{
			sec:    sec,
			node:   nodes[rng.Intn(len(nodes))],
			metric: metrics[rng.Intn(len(metrics))],
			value:  rng.NormFloat64()*25 + 200,
		})
	}
	return out
}

func publishAll(t *testing.T, b *stream.Broker, recs []propRecord) {
	for _, r := range recs {
		publishObs(t, b, r.sec, r.node, r.metric, r.value)
	}
}

func TestSlidingWindowCrashRestoreEmitsIdentically(t *testing.T) {
	for seed := int64(21); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			recs := randomRecords(rng, 150+rng.Intn(150))
			ctx := context.Background()

			// Uninterrupted reference run.
			bRef := newBrokerWithTopic(t)
			publishAll(t, bRef, recs)
			var refSink collectSink
			ref := crashPump(t, bRef, "ref", "", refSink.sink)
			if err := ref.Drain(ctx); err != nil {
				t.Fatalf("reference drain: %v", err)
			}

			// Interrupted run: publish in chunks, run a few passes, then
			// "crash" (abandon the pump with windows open and, between
			// the last checkpoint and the crash, possibly unread records)
			// and restart from the checkpoint dir.
			b := newBrokerWithTopic(t)
			dir := t.TempDir()
			var sinks []*collectSink
			incarnation := 0
			i := 0
			for i < len(recs) {
				chunk := 20 + rng.Intn(60)
				if i+chunk > len(recs) {
					chunk = len(recs) - i
				}
				publishAll(t, b, recs[i:i+chunk])
				i += chunk

				sink := &collectSink{}
				sinks = append(sinks, sink)
				p := crashPump(t, b, "crashy", dir, sink.sink)
				if i >= len(recs) {
					// Final incarnation: drain fully and force-close.
					if err := p.Drain(ctx); err != nil {
						t.Fatalf("final drain: %v", err)
					}
				} else {
					// Absorb the chunk in one pass (so a checkpoint always
					// exists for the next incarnation), park for up to two
					// more under a deadline well inside the idle deadline,
					// then die.
					if err := p.Step(ctx); err != nil {
						t.Fatalf("step: %v", err)
					}
					for s := rng.Intn(3); s > 0; s-- {
						sctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
						err := p.Step(sctx)
						cancel()
						if !errors.Is(err, context.DeadlineExceeded) {
							t.Fatalf("parked step: %v, want its deadline", err)
						}
					}
				}
				if incarnation > 0 && !p.Stats().Recovered {
					t.Fatalf("incarnation %d did not restore", incarnation)
				}
				incarnation++
			}
			if incarnation < 2 {
				t.Fatalf("trial degenerated to a single incarnation")
			}

			var got []schema.Row
			sunk := map[int64]bool{}
			for _, s := range sinks {
				for _, f := range s.frames {
					if w := f.Col(0).Ints()[0]; !sunk[w] {
						sunk[w] = true
						got = append(got, f.Rows()...)
					}
				}
			}
			want := refSink.rows()
			if len(got) != len(want) {
				t.Fatalf("interrupted run emitted %d rows, uninterrupted %d", len(got), len(want))
			}
			for r := range want {
				if !got[r].Equal(want[r]) {
					t.Fatalf("row %d differs after %d incarnations:\n got  %v\n want %v",
						r, incarnation, got[r], want[r])
				}
			}
		})
	}
}
