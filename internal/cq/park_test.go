package cq

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"odakit/internal/plane"
	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
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
// not polling — a pump of plain views, and one whose view has a sink, past
// its idle deadline. Between two parks with one commit between them it
// makes at most one pass (one fetch per partition), and it checkpoints
// once per pass that applied records; the sink pump, started on one
// record, also flushes and checkpoints once at its idle deadline.
func TestQuiescentPumpParks(t *testing.T) {
	const (
		topic  = "bronze.alpha"
		parts  = 8
		rounds = 5
	)
	for _, withSink := range []bool{false, true} {
		t.Run(fmt.Sprintf("sink=%v", withSink), func(t *testing.T) {
			b := stream.NewBroker()
			defer b.Close()
			if err := b.CreateTopic(topic, stream.TopicConfig{Partitions: parts}); err != nil {
				t.Fatal(err)
			}
			e := testEngine()
			v, err := e.Register(Spec{Window: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			publish := func(i int) {
				o := obsAt(unitT0.Add(time.Duration(i)*time.Second), "node01", "pow", float64(i))
				if _, err := b.PublishBatchTo(topic, (3*i)%parts, []stream.Message{{Value: schema.EncodeRow(o.Row())}}); err != nil {
					t.Fatal(err)
				}
			}
			// The sink pump starts on one record and, before its first
			// park, has flushed at its idle deadline and after that pass.
			first, startCkpts := 0, int64(0)
			if withSink {
				v.SetSink(0, func(context.Context, []tsdb.Group) error { return nil })
				publish(0)
				first, startCkpts = 1, 2
			}
			src := newParkCounter(b)
			p, err := NewPumpSource(e, src, PumpConfig{Topics: []string{topic}, CheckpointDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if withSink {
				p.idleAt = time.Now()
			}
			ctx, cancel := context.WithCancel(context.Background())
			ran := make(chan error, 1)
			go func() { ran <- p.Run(ctx) }()

			src.nextPark(t, parts)
			if m := p.Stats(); m.Applied != int64(first) || m.Checkpoints != startCkpts {
				t.Fatalf("before the first park: %d records in %d checkpoints, want %d and %d", m.Applied, m.Checkpoints, first, startCkpts)
			}
			for i := first; i < first+rounds; i++ {
				before, ckpts := src.fetches.Load(), p.Stats().Checkpoints
				publish(i)
				src.nextPark(t, parts)
				if n := src.fetches.Load() - before; n > parts {
					t.Fatalf("round %d: %d fetches between two parks around one commit, want at most one pass (%d)", i, n, parts)
				}
				if n := p.Stats().Checkpoints - ckpts; n != 1 {
					t.Fatalf("round %d: %d checkpoints between two parks around one commit, want 1", i, n)
				}
			}
			cancel()
			close(src.done)
			if err := <-ran; !errors.Is(err, context.Canceled) {
				t.Fatalf("Run ended with %v, want context.Canceled", err)
			}
			if m := p.Stats(); m.Applied != int64(first+rounds) || m.Checkpoints != startCkpts+rounds {
				t.Fatalf("applied %d records in %d checkpoints, want %d and %d", m.Applied, m.Checkpoints, first+rounds, startCkpts+rounds)
			}
		})
	}
}
