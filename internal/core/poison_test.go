package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"odakit/internal/plane"
	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/telemetry"
)

// TestPoisonQuarantinedOncePerConsumer: every consumer of a bronze topic
// has one poison policy. Whichever of them reads an undecodable or
// non-conforming record publishes it to "<topic>.dlq" exactly once, with
// its topic, partition, offset and payload and a reason naming the
// consumer, counts it, and carries on; where the consumer has a /metrics
// family for it, that counts it too.
func TestPoisonQuarantinedOncePerConsumer(t *testing.T) {
	src := telemetry.SourcePowerTemp
	topic := BronzeTopic(src)
	for _, tc := range []struct {
		name     string
		consumer string // what every reason starts with
		family   string // the /metrics counter, "" when the consumer has none
		run      func(ctx context.Context, f *Facility) (quarantined int64, err error)
	}{
		{"cq pump", "cq pump cq", "oda_cq_dead_letters_total", func(ctx context.Context, f *Facility) (int64, error) {
			p, err := f.NewCQPump("", src)
			if err != nil {
				return 0, err
			}
			err = p.Drain(ctx)
			return p.Metrics().Bad, err
		}},
		{"silver job", "sproc job silver-" + string(src), "oda_sproc_dead_letters_total", func(ctx context.Context, f *Facility) (int64, error) {
			m, err := f.DrainSilver(ctx, SilverPipelineConfig{Source: src})
			return m.RecordsDeadLettered, err
		}},
		{"bronze replay", "core replay", "", func(ctx context.Context, f *Facility) (int64, error) {
			_, q, err := f.ReplayBronzeToLake(ctx, src)
			return q, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			f := testFacility(t)
			if _, err := f.IngestWindow(ctx, t0, t0.Add(time.Minute), src); err != nil {
				t.Fatal(err)
			}
			poison := map[[2]int64][]byte{} // (partition, offset) -> payload
			for i, p := range [][]byte{
				[]byte("not a row at all"),
				schema.EncodeRow(schema.Row{schema.Str("wrong-schema")}),
				{0xff, 0x00, 0x01},
			} {
				off, err := f.Broker.PublishBatchTo(topic, i%TopicPartitions, []stream.Message{{Value: p}})
				if err != nil {
					t.Fatal(err)
				}
				poison[[2]int64{int64(i % TopicPartitions), off}] = p
			}

			q, err := tc.run(ctx, f)
			if err != nil {
				t.Fatal(err)
			}
			if q != int64(len(poison)) {
				t.Fatalf("%s counted %d quarantined records, want %d", tc.name, q, len(poison))
			}
			deads, err := plane.ReadDeadLetters(ctx, f.Broker, topic)
			if err != nil {
				t.Fatal(err)
			}
			if len(deads) != len(poison) {
				t.Fatalf("%s.dlq holds %d records, want each of the %d poison records once", topic, len(deads), len(poison))
			}
			for _, d := range deads {
				key := [2]int64{int64(d.Partition), d.Offset}
				want, ok := poison[key]
				if !ok || d.Topic != topic || !bytes.Equal(d.Payload, want) {
					t.Fatalf("DLQ record %s %d@%d (%q) is none of the poison records", d.Topic, d.Partition, d.Offset, d.Payload)
				}
				delete(poison, key)
				if !strings.HasPrefix(d.Reason, tc.consumer+": ") {
					t.Fatalf("DLQ reason %q does not name the consumer %q", d.Reason, tc.consumer)
				}
			}
			if tc.family == "" {
				return
			}
			for _, s := range f.Obs.Gather() {
				if s.Name == tc.family {
					if s.Value != float64(len(deads)) {
						t.Fatalf("%s = %v, want %d", tc.family, s.Value, len(deads))
					}
					return
				}
			}
			t.Fatalf("/metrics has no %s", tc.family)
		})
	}
}
