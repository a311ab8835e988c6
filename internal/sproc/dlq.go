package sproc

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"time"

	"odakit/internal/plane"
	"odakit/internal/schema"
	"odakit/internal/stream"
)

// Dead-letter quarantine: records that cannot be processed — undecodable
// payloads, schema violations — are not silently dropped and not allowed
// to wedge the pipeline. They are republished to a sibling topic named
// "<topic>.dlq" with enough metadata (origin partition/offset, the decode
// error, the raw payload) to diagnose and replay them once the producer
// bug is fixed. DLQ topics are plain STREAM topics on whichever plane the
// job reads: bounded by DLQRetentionBytes, inspectable with a plane.Reader
// or ReadDeadLetters.

// DLQSuffix is appended to a topic's name to form its dead-letter topic.
const DLQSuffix = ".dlq"

// DLQRetentionBytes caps a dead-letter topic the way the facility's
// default caps a bronze partition (64 MiB): a flood of poison records
// trims the oldest quarantined ones instead of growing without bound.
const DLQRetentionBytes = 64 << 20

// DLQTopic returns the dead-letter topic for a source topic.
func DLQTopic(topic string) string { return topic + DLQSuffix }

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
		return DeadRecord{}, fmt.Errorf("sproc: dlq row: %w", err)
	}
	payload, err := base64.StdEncoding.DecodeString(r[5].StrVal())
	if err != nil {
		return DeadRecord{}, fmt.Errorf("sproc: dlq payload: %w", err)
	}
	return DeadRecord{
		Topic: r[0].StrVal(), Partition: int(r[1].IntVal()), Offset: r[2].IntVal(),
		Ts: r[3].TimeVal(), Reason: r[4].StrVal(), Payload: payload,
	}, nil
}

// DeadLetter publishes quarantined records to their topics' DLQ topics,
// creating those topics (single partition — DLQ volume is tiny and order
// aids forensics — under DLQRetentionBytes) as needed. It returns how many
// records were published.
func DeadLetter(b plane.Stream, recs []DeadRecord) (int, error) {
	byTopic := make(map[string][]stream.Message)
	for _, d := range recs {
		dlq := DLQTopic(d.Topic)
		byTopic[dlq] = append(byTopic[dlq], stream.Message{Value: schema.EncodeRow(d.Row())})
	}
	published := 0
	for dlq, msgs := range byTopic {
		if err := b.EnsureTopic(dlq, stream.TopicConfig{Partitions: 1, RetentionBytes: DLQRetentionBytes}); err != nil {
			return published, fmt.Errorf("sproc: dlq topic: %w", err)
		}
		n, err := b.PublishBatch(dlq, msgs)
		published += n
		if err != nil {
			return published, fmt.Errorf("sproc: dlq publish: %w", err)
		}
	}
	return published, nil
}

// ReadDeadLetters drains a topic's DLQ and returns the records it still
// retains in offset order — the forensics/replay read path. A topic with
// no DLQ (nothing was ever quarantined) yields an empty slice.
func ReadDeadLetters(ctx context.Context, s plane.Stream, topic string) ([]DeadRecord, error) {
	r, err := plane.NewReader(s, DLQTopic(topic))
	if errors.Is(err, stream.ErrNoTopic) {
		return nil, nil // no DLQ topic: nothing was quarantined
	}
	if err != nil {
		return nil, fmt.Errorf("sproc: dlq: %w", err)
	}
	var out []DeadRecord
	for {
		n, err := r.Poll(ctx, 1024, func(_ string, _ int, recs []stream.Record) error {
			for _, rec := range recs {
				d, err := deadRecordFromRow(mustDecodeRow(rec.Value))
				if err != nil {
					return err
				}
				out = append(out, d)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("sproc: dlq fetch: %w", err)
		}
		if n == 0 {
			return out, nil
		}
	}
}

// mustDecodeRow decodes row codec bytes, returning nil on failure (the
// subsequent Conforms check reports the error with context).
func mustDecodeRow(b []byte) schema.Row {
	row, _, err := schema.DecodeRow(b)
	if err != nil {
		return nil
	}
	return row
}
