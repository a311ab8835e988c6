package plane

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"time"

	"odakit/internal/schema"
	"odakit/internal/stream"
)

// DLQRetentionBytes caps a dead-letter topic the way the facility's
// default caps a bronze partition (64 MiB): a flood of poison records
// trims the oldest quarantined ones instead of growing without bound.
const DLQRetentionBytes = 64 << 20

// DLQTopic returns the dead-letter topic for a source topic.
func DLQTopic(topic string) string { return topic + ".dlq" }

// DLQSchema is the row layout of dead-letter records. The payload is
// base64-encoded (the row codec has no raw-bytes kind).
var DLQSchema = schema.New(
	schema.Field{Name: "topic", Kind: schema.KindString},
	schema.Field{Name: "partition", Kind: schema.KindInt},
	schema.Field{Name: "offset", Kind: schema.KindInt},
	schema.Field{Name: "ts", Kind: schema.KindTime},
	schema.Field{Name: "error", Kind: schema.KindString},
	schema.Field{Name: "payload", Kind: schema.KindString},
)

// DeadRecord is one quarantined record.
type DeadRecord struct {
	Topic     string
	Partition int
	Offset    int64
	Ts        time.Time
	Reason    string
	Payload   []byte
}

// Row encodes the record in DLQSchema layout.
func (d DeadRecord) Row() schema.Row {
	return schema.Row{
		schema.Str(d.Topic), schema.Int(int64(d.Partition)), schema.Int(d.Offset),
		schema.Time(d.Ts), schema.Str(d.Reason),
		schema.Str(base64.StdEncoding.EncodeToString(d.Payload)),
	}
}

// deadRecordFromRow decodes a DLQSchema row back into a DeadRecord.
func deadRecordFromRow(r schema.Row) (DeadRecord, error) {
	if err := r.Conforms(DLQSchema); err != nil {
		return DeadRecord{}, fmt.Errorf("plane: dlq row: %w", err)
	}
	payload, err := base64.StdEncoding.DecodeString(r[5].StrVal())
	if err != nil {
		return DeadRecord{}, fmt.Errorf("plane: dlq payload: %w", err)
	}
	return DeadRecord{
		Topic: r[0].StrVal(), Partition: int(r[1].IntVal()), Offset: r[2].IntVal(),
		Ts: r[3].TimeVal(), Reason: r[4].StrVal(), Payload: payload,
	}, nil
}

// DeadLetter quarantines records that cannot be processed — undecodable
// payloads, schema violations — from topic: they are republished, with
// their origin partition and offset, the reason and the raw payload, to
// "<topic>.dlq", a plain single-partition topic (DLQ volume is tiny and
// order aids forensics) created under DLQRetentionBytes as needed, to be
// diagnosed and replayed once the producer bug is fixed.
func DeadLetter(s Stream, topic string, recs []DeadRecord) error {
	msgs := make([]stream.Message, len(recs))
	for i, d := range recs {
		msgs[i] = stream.Message{Value: schema.EncodeRow(d.Row())}
	}
	if err := s.EnsureTopic(DLQTopic(topic), stream.TopicConfig{Partitions: 1, RetentionBytes: DLQRetentionBytes}); err != nil {
		return fmt.Errorf("plane: dlq topic: %w", err)
	}
	if _, err := s.PublishBatch(DLQTopic(topic), msgs); err != nil {
		return fmt.Errorf("plane: dlq publish: %w", err)
	}
	return nil
}

// ReadDeadLetters drains a topic's DLQ and returns the records it still
// retains in offset order — the forensics/replay read path. A topic with
// no DLQ (nothing was ever quarantined) yields an empty slice.
func ReadDeadLetters(ctx context.Context, s Stream, topic string) ([]DeadRecord, error) {
	r, err := NewReader(s, DLQTopic(topic))
	if errors.Is(err, stream.ErrNoTopic) {
		return nil, nil // no DLQ topic: nothing was quarantined
	}
	if err != nil {
		return nil, fmt.Errorf("plane: dlq: %w", err)
	}
	var out []DeadRecord
	for {
		n, err := r.Poll(ctx, 1024, func(_ string, _ int, recs []stream.Record) error {
			for _, rec := range recs {
				row, _, _ := schema.DecodeRow(rec.Value) // a nil row fails Conforms below, with context
				d, err := deadRecordFromRow(row)
				if err != nil {
					return err
				}
				out = append(out, d)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("plane: dlq fetch: %w", err)
		}
		if n == 0 {
			return out, nil
		}
	}
}
