package sproc

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"odakit/internal/plane"
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

// TestQuiescentJobParks: a job past its idle deadline, with
// nothing to read, is parked — no fetches, no checkpoints. Between two
// parks with one commit between them it makes at most one pass (one fetch
// per partition) and writes one checkpoint.
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
	j := viewJob(t, src, JobConfig{Name: "quiet", Topic: "bronze", CheckpointDir: t.TempDir()},
		tumblingView(t, 15*time.Second, tsdb.AggCount, nil, tsdb.DimComponent), sink.sink)
	if err := j.start(); err != nil {
		t.Fatal(err)
	}
	j.idleAt = time.Now() // past its idle deadline: the next park flushes at it
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() {
		for {
			if err := j.step(ctx); err != nil {
				ran <- err
				return
			}
		}
	}()

	src.nextPark(t, parts)
	if m := j.Metrics(); m.RecordsIn != 1 || m.Checkpoints != 2 {
		t.Fatalf("before the first park: %d records in %d checkpoints, want 1 record and 2 (the idle flush, the batch)", m.RecordsIn, m.Checkpoints)
	}
	for i := 1; i <= rounds; i++ {
		before, ckpts := src.fetches.Load(), j.Metrics().Checkpoints
		publishObs(t, b, i, "node0", "power", float64(i))
		src.nextPark(t, parts)
		if n := src.fetches.Load() - before; n > int64(parts) {
			t.Fatalf("round %d: %d fetches between two parks around one commit, want at most one pass (%d)", i, n, parts)
		}
		if n := j.Metrics().Checkpoints - ckpts; n != 1 {
			t.Fatalf("round %d: %d checkpoints between two parks around one commit, want 1", i, n)
		}
	}
	cancel()
	close(src.done)
	if err := <-ran; !errors.Is(err, context.Canceled) {
		t.Fatalf("the job ended with %v, want context.Canceled", err)
	}
	if m := j.Metrics(); m.RecordsIn != rounds+1 {
		t.Fatalf("the job read %d records, want %d", m.RecordsIn, rounds+1)
	}
}
