package plane

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"odakit/internal/resilience"
	"odakit/internal/stream"
)

// idleWait is how long a stream reader that found nothing waits before
// it looks again — the one such constant. Waking readers on commit
// instead (Broker.Fetch and partition.notify are the hook) changes
// Reader.Wait and nothing else.
const idleWait = 5 * time.Millisecond

// Reader is a committed-prefix cursor over some of a Stream's topics:
// every consumer of the STREAM tier — the CQ pump, Silver jobs, bronze
// replay, the dead-letter read — is one Reader, on either plane.
// Independent consumers replaying from their own positions are one
// Reader each; a Reader's progress lives nowhere but in the Reader until
// its owner persists Offsets.
type Reader struct {
	s      Stream
	topics []string           // ascending
	next   map[string][]int64 // next offset to fetch, per topic partition
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
// fn accepted.
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
			if err := fn(t, p, recs); err != nil {
				return n, err
			}
			next[p] = recs[len(recs)-1].Offset + 1
			n += len(recs)
		}
	}
	return n, skipped
}

// Page is one partition's share of a collected pass.
type Page struct {
	Topic string
	Part  int
	Recs  []stream.Record
}

// Collect is Poll for a caller that processes a pass after it ends
// rather than page by page: it runs passes under retry — the caller's
// policy, handed the pass to call until it returns nil or the policy
// gives up — and returns their non-empty pages in the order read. A
// retried pass re-reads only the partitions that failed, the others add
// their next page. Pages are returned or the cursors go back to where
// they were: an error (retries exhausted, ctx done between two
// partitions or during a backoff) leaves no cursor past a record the
// caller was never given.
func (r *Reader) Collect(ctx context.Context, max int, retry func(pass func() error) error) ([]Page, error) {
	before := r.Offsets()
	var pages []Page
	err := retry(func() error {
		_, perr := r.Poll(ctx, max, func(t string, p int, recs []stream.Record) error {
			pages = append(pages, Page{Topic: t, Part: p, Recs: recs})
			return nil
		})
		return perr
	})
	if err != nil {
		r.next = before
		return nil, err
	}
	return pages, nil
}

// fetch reads one page at next[p], topic t's cursor for partition p. A
// cursor retention has overtaken resumes at the oldest record still held
// (the trimmed records are gone by design); one beyond the committed end
// has nothing to read yet.
func (r *Reader) fetch(t string, next []int64, p, max int) ([]stream.Record, error) {
	recs, err := r.s.FetchNoWait(t, p, next[p], max)
	if errors.Is(err, stream.ErrOffsetTrimmed) {
		oldest, oerr := r.s.OldestOffset(t, p)
		if oerr != nil {
			return nil, oerr
		}
		if oldest <= next[p] {
			return nil, nil
		}
		next[p] = oldest
		recs, err = r.s.FetchNoWait(t, p, oldest, max)
		if errors.Is(err, stream.ErrOffsetTrimmed) {
			return nil, nil // trimmed again under us; the next pass resumes
		}
	}
	if errors.Is(err, stream.ErrOffsetInFuture) {
		return nil, nil
	}
	return recs, err
}

// Wait is the idle wait between passes that found nothing.
func (r *Reader) Wait(ctx context.Context) error {
	t := time.NewTimer(idleWait)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
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
