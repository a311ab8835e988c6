package cq

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"odakit/internal/plane"
	"odakit/internal/schema"
	"odakit/internal/stream"
)

// parkCounter is a plane that counts AppendRecords calls and reports every
// Ready call — its partition and whether the channel it hands out is still
// open — so a test sees its reader park without sleeping.
type parkCounter struct {
	plane.Stream
	fetches atomic.Int64
	readies chan readyCall
	done    chan struct{}
}

type readyCall struct {
	part int
	open bool
}

func newParkCounter(s plane.Stream) *parkCounter {
	return &parkCounter{Stream: s, readies: make(chan readyCall), done: make(chan struct{})}
}

func (s *parkCounter) AppendRecords(dst []stream.Record, topic string, p int, off int64, max int) ([]stream.Record, error) {
	s.fetches.Add(1)
	return s.Stream.AppendRecords(dst, topic, p, off, max)
}

func (s *parkCounter) Ready(topic string, p int, off int64) (<-chan struct{}, error) {
	ch, err := s.Stream.Ready(topic, p, off)
	open := err == nil
	if open {
		select {
		case <-ch:
			open = false
		default:
		}
	}
	select {
	case s.readies <- readyCall{p, open}:
	case <-s.done:
	}
	return ch, err
}

// nextPark returns once one Wait over a topic of parts partitions has
// found every partition's channel open: the reader is parked.
func (s *parkCounter) nextPark(t *testing.T, parts int) {
	t.Helper()
	for run := 0; run < parts; {
		select {
		case c := <-s.readies:
			if c.part == 0 || !c.open {
				run = 0
			}
			if c.open {
				run++
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the reader never parked")
		}
	}
}

// TestQuiescentPumpParks: a running pump with nothing to read is parked,
// not polling. Between two parks with one commit between them it makes at
// most one pass (one fetch per partition), and it checkpoints once per
// pass that applied records.
func TestQuiescentPumpParks(t *testing.T) {
	const (
		topic  = "bronze.alpha"
		parts  = 8
		rounds = 5
	)
	b := stream.NewBroker()
	defer b.Close()
	if err := b.CreateTopic(topic, stream.TopicConfig{Partitions: parts}); err != nil {
		t.Fatal(err)
	}
	e := testEngine()
	if _, err := e.Register(Spec{Window: time.Hour}); err != nil {
		t.Fatal(err)
	}
	src := newParkCounter(b)
	p, err := NewPumpSource(e, src, PumpConfig{Topics: []string{topic}, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- p.Run(ctx) }()

	src.nextPark(t, parts)
	for i := 0; i < rounds; i++ {
		before := src.fetches.Load()
		o := obsAt(unitT0.Add(time.Duration(i)*time.Second), "node01", "pow", float64(i))
		if _, err := b.PublishBatchTo(topic, (3*i)%parts, []stream.Message{{Value: schema.EncodeRow(o.Row())}}); err != nil {
			t.Fatal(err)
		}
		src.nextPark(t, parts)
		if n := src.fetches.Load() - before; n > parts {
			t.Fatalf("round %d: %d fetches between two parks around one commit, want at most one pass (%d)", i, n, parts)
		}
	}
	cancel()
	close(src.done)
	if err := <-ran; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run ended with %v, want context.Canceled", err)
	}
	if m := p.Metrics(); m.Applied != rounds || m.Checkpoints != rounds {
		t.Fatalf("applied %d records in %d checkpoints, want %d and %d", m.Applied, m.Checkpoints, rounds, rounds)
	}
}
