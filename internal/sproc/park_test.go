package sproc

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"odakit/internal/plane"
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

// TestQuiescentJobParks: a Silver job — a pump whose tumbling view has a
// close sink — past its idle deadline, with nothing to read, is parked:
// no fetches, no checkpoints. Between two parks with one commit between
// them it makes at most one pass (one fetch per partition) and writes one
// checkpoint.
func TestQuiescentJobParks(t *testing.T) {
	const rounds = 5
	b := newBrokerWithTopic(t)
	parts, err := b.Partitions("bronze")
	if err != nil {
		t.Fatal(err)
	}
	publishObs(t, b, 0, "node0", "power", 0)
	src := &parkCounter{Stream: b, readies: make(chan readyCall), done: make(chan struct{})}
	var sink collectSink
	p, _ := windowPump(t, src, "quiet", t.TempDir(), countWindow, sink.sink)
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- p.Run(ctx) }()

	// The job parks on its first record until its idle deadline, then
	// flushes at it and parks for good.
	for deadline := time.Now().Add(10 * time.Second); ; {
		src.nextPark(t, parts)
		if p.Stats().Checkpoints >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the job never flushed at its idle deadline")
		}
	}
	if m := p.Stats(); m.Applied != 1 || m.Checkpoints != 2 {
		t.Fatalf("before the first park past the idle deadline: %d records in %d checkpoints, want 1 record and 2 (the batch, the idle flush)", m.Applied, m.Checkpoints)
	}
	for i := 1; i <= rounds; i++ {
		before, ckpts := src.fetches.Load(), p.Stats().Checkpoints
		publishObs(t, b, i, "node0", "power", float64(i))
		src.nextPark(t, parts)
		if n := src.fetches.Load() - before; n > int64(parts) {
			t.Fatalf("round %d: %d fetches between two parks around one commit, want at most one pass (%d)", i, n, parts)
		}
		if n := p.Stats().Checkpoints - ckpts; n != 1 {
			t.Fatalf("round %d: %d checkpoints between two parks around one commit, want 1", i, n)
		}
	}
	cancel()
	close(src.done)
	if err := <-ran; !errors.Is(err, context.Canceled) {
		t.Fatalf("the job ended with %v, want context.Canceled", err)
	}
	if m := p.Stats(); m.Applied != rounds+1 {
		t.Fatalf("the job read %d records, want %d", m.Applied, rounds+1)
	}
}
