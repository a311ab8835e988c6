package plane

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"

	"odakit/internal/resilience"
	"odakit/internal/stream"
)

// Reader is a committed-prefix cursor over some of a Stream's topics:
// every consumer of the STREAM tier — a Loop (the CQ pumps, Silver's),
// bronze replay, the dead-letter read — is one Reader, on either plane.
// Independent consumers replaying from their own positions are one
// Reader each; a Reader's progress lives nowhere but in the Reader until
// its owner persists Offsets.
type Reader struct {
	s      Stream
	topics []string           // ascending
	next   map[string][]int64 // next offset to fetch, per topic partition
	// page holds the record headers of the page being delivered, reused
	// from fetch to fetch and zeroed once fn returns; the keys and values
	// it points at are the log's.
	page []stream.Record
}

// NewReader positions a reader at the oldest retained record of every
// partition of the named topics.
func NewReader(s Stream, topics ...string) (*Reader, error) {
	r := &Reader{s: s, topics: append([]string(nil), topics...), next: make(map[string][]int64, len(topics))}
	sort.Strings(r.topics)
	for _, t := range r.topics {
		parts, err := s.Partitions(t)
		if err != nil {
			return nil, fmt.Errorf("plane: partitions %s: %w", t, err)
		}
		next := make([]int64, parts)
		for p := range next {
			if next[p], err = s.OldestOffset(t, p); err != nil {
				return nil, fmt.Errorf("plane: oldest %s/%d: %w", t, p, err)
			}
		}
		r.next[t] = next
	}
	return r, nil
}

// Poll makes one pass over every partition — topics ascending, partitions
// ascending — fetching up to max records from each without blocking and
// handing each non-empty page to fn before the partition's cursor moves
// past the last record delivered (a log that adopted a replication gap
// has a hole, so cursor+len would be wrong). It returns how many records
// fn accepted. recs is valid during the call only: the reader fetches
// the next page into the same headers, so fn must not keep recs or any
// element's address (the keys and values themselves stay valid).
//
// A transient fetch failure (a leader mid-failover, an injected fault)
// skips that partition only: its cursor stays, the pass goes on, and the
// first such error is returned with the count so the caller applies its
// own policy — tolerate it or retry. Any other error (no such topic,
// broker closed, ctx done, fn's own) ends the pass, again with every
// cursor at the last record fn accepted.
func (r *Reader) Poll(ctx context.Context, max int, fn func(topic string, part int, recs []stream.Record) error) (int, error) {
	n := 0
	var skipped error
	for _, t := range r.topics {
		next := r.next[t]
		for p := range next {
			if err := ctx.Err(); err != nil {
				return n, err
			}
			recs, err := r.fetch(t, next, p, max)
			if err != nil {
				err = fmt.Errorf("plane: fetch %s/%d@%d: %w", t, p, next[p], err)
				if !resilience.IsTransient(err) {
					return n, err
				}
				if skipped == nil {
					skipped = err
				}
				continue
			}
			if len(recs) == 0 {
				continue
			}
			err = fn(t, p, recs)
			if err == nil {
				next[p] = recs[len(recs)-1].Offset + 1
				n += len(recs)
			}
			stream.KeepPage(&r.page, recs)
			if err != nil {
				return n, err
			}
		}
	}
	return n, skipped
}

// fetch reads one page at next[p], topic t's cursor for partition p. A
// cursor retention has overtaken resumes at the oldest record still held
// (the trimmed records are gone by design); one beyond the committed end
// has nothing to read yet.
func (r *Reader) fetch(t string, next []int64, p, max int) ([]stream.Record, error) {
	recs, err := r.s.AppendRecords(r.page[:0], t, p, next[p], max)
	if errors.Is(err, stream.ErrOffsetTrimmed) {
		oldest, oerr := r.s.OldestOffset(t, p)
		if oerr != nil {
			return nil, oerr
		}
		if oldest <= next[p] {
			return nil, nil
		}
		next[p] = oldest
		recs, err = r.s.AppendRecords(r.page[:0], t, p, oldest, max)
		if errors.Is(err, stream.ErrOffsetTrimmed) {
			return nil, nil // trimmed again under us; the next pass resumes
		}
	}
	if errors.Is(err, stream.ErrOffsetInFuture) {
		return nil, nil
	}
	return recs, err
}

// Wait parks the reader between passes until a commit lands behind one of
// its cursors or ctx ends. It returns at once when a cursor already has
// committed records after it (a pass stopped at its page size, a partition
// a transient failure skipped), and a deleted topic or a closed plane
// wakes it too, for the next pass to report.
func (r *Reader) Wait(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	cases := []reflect.SelectCase{{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ctx.Done())}}
	for _, t := range r.topics {
		for p, off := range r.next[t] {
			ch, err := r.s.Ready(t, p, off)
			if err != nil {
				return fmt.Errorf("plane: ready %s/%d@%d: %w", t, p, off, err)
			}
			select {
			case <-ch:
				return nil
			default:
			}
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ch)})
		}
	}
	if i, _, _ := reflect.Select(cases); i == 0 {
		return ctx.Err()
	}
	return nil
}

// Lag is the number of offsets between the cursors and EndOffset, summed
// over every partition: zero exactly when everything committed so far
// has been delivered.
func (r *Reader) Lag() (int64, error) {
	var lag int64
	for _, t := range r.topics {
		for p, off := range r.next[t] {
			end, err := r.s.EndOffset(t, p)
			if err != nil {
				return 0, fmt.Errorf("plane: end %s/%d: %w", t, p, err)
			}
			if end > off {
				lag += end - off
			}
		}
	}
	return lag, nil
}

// Offsets copies the cursors: the next offset to fetch per topic
// partition, which is what a checkpoint stores.
func (r *Reader) Offsets() map[string][]int64 {
	out := make(map[string][]int64, len(r.next))
	for t, next := range r.next {
		out[t] = append([]int64(nil), next...)
	}
	return out
}

// Seek moves cursors to the given next-offsets, partition by partition.
// A topic the reader does not read is ignored (a checkpoint may name one
// that is no longer consumed) and so is a partition offs does not reach;
// a partition the topic does not have is an error.
func (r *Reader) Seek(offs map[string][]int64) error {
	for t, to := range offs {
		next, ok := r.next[t]
		if !ok {
			continue
		}
		if len(to) > len(next) {
			return fmt.Errorf("plane: seek %s/%d: %w", t, len(next), stream.ErrNoPartition)
		}
		copy(next, to)
	}
	return nil
}
