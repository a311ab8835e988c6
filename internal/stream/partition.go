package stream

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// topic groups partitions with a shared config.
type topic struct {
	name  string
	cfg   TopicConfig
	parts []*partition
	rr    atomic.Uint64 // round-robin cursor for keyless publishes
	// batchRR staggers the partition visit order across PublishBatch
	// calls so concurrent batches don't convoy lock-for-lock.
	batchRR atomic.Uint64
}

// partition is one append-only log. Records are held in a ring buffer
// ordered by offset: retention advances the head while appends advance
// the tail, so once retention bounds the live set the ring recycles one
// allocation forever — no per-append growth, tail copying, or GC churn.
// Compaction may punch holes in the offset sequence, so readers locate
// offsets by binary search rather than by index. horizon is the lowest
// offset still addressable (reads below it fail with ErrOffsetTrimmed);
// next is the offset the next append will take.
type partition struct {
	topic string
	id    int

	mu      sync.Mutex
	horizon int64
	next    int64
	// Ring storage: the live records, ordered by offset, are
	// buf[(head+i)%len(buf)] for logical index i in [0, count).
	buf    []Record
	head   int
	count  int
	bytes  int64
	closed bool
	// deleted marks a partition whose topic was removed via DeleteTopic,
	// as opposed to a broker shutdown. Readers holding a stale *topic
	// (a fetch that resolved it first, a blocked Fetch) must see the
	// topic-not-found error, never leftover records or ErrBrokerClosed.
	deleted bool
	// notify wakes blocked fetchers without a condition variable
	// (select-able with ctx.Done()): the first fetch that has to wait
	// makes it, the next append or close closes it and sets it back to
	// nil. With nobody waiting an append allocates and closes nothing.
	notify chan struct{}

	totalRecords atomic.Int64
	totalBytes   atomic.Int64
	fetchRecords atomic.Int64
	compactions  atomic.Int64
}

func newPartition(topic string, id int) *partition {
	return &partition{topic: topic, id: id}
}

// recAt returns the record at logical index i (0 = oldest); the caller
// must hold p.mu and ensure 0 <= i < p.count.
func (p *partition) recAt(i int) *Record {
	return &p.buf[(p.head+i)%len(p.buf)]
}

// pushLocked appends one record at the tail, growing the ring only while
// the live set is still growing.
func (p *partition) pushLocked(rec Record) {
	if p.count == len(p.buf) {
		newCap := 2 * len(p.buf)
		if newCap < 1024 {
			newCap = 1024
		}
		nb := make([]Record, newCap)
		for i := 0; i < p.count; i++ {
			nb[i] = *p.recAt(i)
		}
		p.buf, p.head = nb, 0
	}
	p.buf[(p.head+p.count)%len(p.buf)] = rec
	p.count++
}

// trimLocked drops the n oldest records, zeroing their slots so the ring
// does not pin their key/value buffers.
func (p *partition) trimLocked(n int) {
	for i := 0; i < n; i++ {
		*p.recAt(i) = Record{}
	}
	p.head = (p.head + n) % len(p.buf)
	p.count -= n
}

func (p *partition) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closeLocked()
}

func (p *partition) closeLocked() {
	if p.closed {
		return
	}
	p.closed = true
	p.wakeLocked()
}

// wakeLocked releases every fetcher blocked on the partition.
func (p *partition) wakeLocked() {
	if p.notify != nil {
		close(p.notify)
		p.notify = nil
	}
}

// markDeleted closes the partition for topic deletion: the ring is
// dropped so no stale record can be served to a reader that resolved the
// topic before DeleteTopic won the race, and the deleted flag turns every
// later read into ErrNoTopic.
func (p *partition) markDeleted() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.deleted = true
	p.buf, p.head, p.count, p.bytes = nil, 0, 0, 0
	p.horizon = p.next
	p.closeLocked()
}

func (p *partition) errIfDeletedLocked() error {
	if p.deleted {
		return fmt.Errorf("%w: %s", ErrNoTopic, p.topic)
	}
	return nil
}

func (p *partition) endOffset() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.next
}

func (p *partition) append(ts time.Time, key, value []byte, cfg TopicConfig) (int64, error) {
	return p.appendBatch(ts, []Message{{Key: key, Value: value}}, cfg)
}

// appendBatch appends every message in order under one lock acquisition,
// then runs compaction and retention once and wakes blocked fetchers
// once — the amortized hot path behind Broker.PublishBatch. It returns
// the offset assigned to the first message of the batch.
func (p *partition) appendBatch(ts time.Time, msgs []Message, cfg TopicConfig) (int64, error) {
	if len(msgs) == 0 {
		return p.endOffset(), nil
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0, ErrBrokerClosed
	}
	first := p.next
	// Callers may reuse their message buffers after we return, so keys and
	// values are copied. For append-only topics the copies share one arena
	// allocation per batch; compacted topics copy per record so compaction
	// dropping a record doesn't pin the whole batch's arena in memory.
	var arena []byte
	if !cfg.Compacted {
		total := 0
		for i := range msgs {
			total += len(msgs[i].Key) + len(msgs[i].Value)
		}
		arena = make([]byte, 0, total)
	}
	var added int64
	for i := range msgs {
		m := &msgs[i]
		var key, value []byte
		if cfg.Compacted {
			key = append([]byte(nil), m.Key...)
			value = append([]byte(nil), m.Value...)
		} else {
			off := len(arena)
			arena = append(arena, m.Key...)
			key = arena[off:len(arena):len(arena)]
			off = len(arena)
			arena = append(arena, m.Value...)
			value = arena[off:len(arena):len(arena)]
		}
		rec := Record{
			Topic: p.topic, Partition: p.id, Offset: p.next, Ts: ts,
			Key: key, Value: value,
		}
		sz := rec.size()
		p.next++
		p.pushLocked(rec)
		p.bytes += sz
		added += sz
	}
	p.totalRecords.Add(int64(len(msgs)))
	p.totalBytes.Add(added)
	if cfg.Compacted {
		every := cfg.CompactEvery
		if every <= 0 {
			every = 1024
		}
		if p.count > every {
			p.compactLocked()
		}
	}
	p.enforceRetentionLocked(ts, cfg)
	p.wakeLocked()
	p.mu.Unlock()
	return first, nil
}

// replicateBatch appends records copied from a leader's log, preserving
// the leader-assigned offsets and timestamps so the follower's log is a
// byte-identical prefix of the leader's. Records at offsets the follower
// already holds are skipped (idempotent re-delivery), and an empty or
// lagging follower may jump forward past a retention gap — offsets only
// ever move monotonically. Replication is only defined for non-compacted
// topics (the cluster rejects compacted configs), so no compaction pass
// runs here.
func (p *partition) replicateBatch(recs []Record, cfg TopicConfig) error {
	if len(recs) == 0 {
		return nil
	}
	p.mu.Lock()
	if err := p.errIfDeletedLocked(); err != nil {
		p.mu.Unlock()
		return err
	}
	if p.closed {
		p.mu.Unlock()
		return ErrBrokerClosed
	}
	appended := 0
	var added int64
	var lastTs time.Time
	for i := range recs {
		r := &recs[i]
		if r.Offset < p.next {
			continue // already replicated
		}
		if p.count == 0 {
			// Nothing retained: adopt the leader's horizon at this record.
			p.horizon = r.Offset
		}
		// The source buffers belong to the transport; copy like appendBatch.
		rec := Record{
			Topic: p.topic, Partition: p.id, Offset: r.Offset, Ts: r.Ts,
			Key:   append([]byte(nil), r.Key...),
			Value: append([]byte(nil), r.Value...),
		}
		p.next = r.Offset + 1
		p.pushLocked(rec)
		sz := rec.size()
		p.bytes += sz
		added += sz
		appended++
		lastTs = r.Ts
	}
	if appended == 0 {
		p.mu.Unlock()
		return nil
	}
	p.totalRecords.Add(int64(appended))
	p.totalBytes.Add(added)
	p.enforceRetentionLocked(lastTs, cfg)
	p.wakeLocked()
	p.mu.Unlock()
	return nil
}

// compactLocked keeps only the newest record per key (keyless records are
// always kept), preserving offsets — the log is left with holes. The
// surviving records are slid down in ring order, so no allocation.
func (p *partition) compactLocked() {
	latest := make(map[string]int64, p.count)
	for i := 0; i < p.count; i++ {
		r := p.recAt(i)
		if len(r.Key) > 0 {
			latest[string(r.Key)] = r.Offset
		}
	}
	w := 0
	var bytes int64
	for i := 0; i < p.count; i++ {
		r := p.recAt(i)
		if len(r.Key) == 0 || latest[string(r.Key)] == r.Offset {
			if w != i {
				*p.recAt(w) = *r
			}
			bytes += p.recAt(w).size()
			w++
		}
	}
	for i := w; i < p.count; i++ {
		*p.recAt(i) = Record{}
	}
	p.count = w
	p.bytes = bytes
	p.compactions.Add(1)
	// The horizon does not move: cursors pointing at compacted-away
	// offsets simply skip forward to the next surviving record, exactly
	// as readers of a compacted log expect.
}

// enforceRetentionLocked trims the head while limits are exceeded.
func (p *partition) enforceRetentionLocked(now time.Time, cfg TopicConfig) {
	trim := 0
	for trim < p.count-1 { // always keep at least the newest record
		r := p.recAt(trim)
		overBytes := cfg.RetentionBytes > 0 && p.bytes > cfg.RetentionBytes
		overAge := cfg.RetentionAge > 0 && now.Sub(r.Ts) > cfg.RetentionAge
		if !overBytes && !overAge {
			break
		}
		p.bytes -= r.size()
		trim++
	}
	if trim > 0 {
		p.trimLocked(trim)
		if p.count > 0 {
			p.horizon = p.recAt(0).Offset
		} else {
			p.horizon = p.next
		}
	}
}

// searchLocked returns the logical index of the first record with
// Offset >= off.
func (p *partition) searchLocked(off int64) int {
	return sort.Search(p.count, func(i int) bool { return p.recAt(i).Offset >= off })
}

// copyRangeLocked copies logical indices [i, j) out of the ring.
func (p *partition) copyRangeLocked(i, j int) []Record {
	out := make([]Record, j-i)
	for k := range out {
		out[k] = *p.recAt(i + k)
	}
	return out
}

// fetch returns up to max records starting at offset, blocking until data
// arrives, the partition closes, or ctx is done.
func (p *partition) fetch(ctx context.Context, offset int64, max int) ([]Record, error) {
	if max <= 0 {
		max = 1024
	}
	for {
		p.mu.Lock()
		if err := p.errIfDeletedLocked(); err != nil {
			p.mu.Unlock()
			return nil, err
		}
		if offset < p.horizon {
			p.mu.Unlock()
			return nil, ErrOffsetTrimmed
		}
		if offset > p.next {
			p.mu.Unlock()
			return nil, ErrOffsetInFuture
		}
		if i := p.searchLocked(offset); i < p.count {
			j := i + max
			if j > p.count {
				j = p.count
			}
			out := p.copyRangeLocked(i, j)
			p.fetchRecords.Add(int64(len(out)))
			p.mu.Unlock()
			return out, nil
		}
		if p.closed {
			p.mu.Unlock()
			return nil, ErrBrokerClosed
		}
		if p.notify == nil {
			p.notify = make(chan struct{})
		}
		ch := p.notify
		p.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ch:
		}
	}
}

// fetchNoWait returns immediately with whatever is available (possibly
// nothing) at offset. It applies the same offset semantics as fetch:
// below the horizon is ErrOffsetTrimmed, beyond the end of the log is
// ErrOffsetInFuture.
func (p *partition) fetchNoWait(offset int64, max int) ([]Record, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.errIfDeletedLocked(); err != nil {
		return nil, err
	}
	if offset < p.horizon {
		return nil, ErrOffsetTrimmed
	}
	if offset > p.next {
		return nil, ErrOffsetInFuture
	}
	i := p.searchLocked(offset)
	if i >= p.count {
		return nil, nil
	}
	j := i + max
	if j > p.count {
		j = p.count
	}
	out := p.copyRangeLocked(i, j)
	p.fetchRecords.Add(int64(len(out)))
	return out, nil
}

type partitionStats struct {
	records, bytes            int64
	totalRecords, totalBytes  int64
	fetchRecords, oldest, end int64
	compactions               int64
}

func (p *partition) stats() partitionStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return partitionStats{
		records:      int64(p.count),
		bytes:        p.bytes,
		totalRecords: p.totalRecords.Load(),
		totalBytes:   p.totalBytes.Load(),
		fetchRecords: p.fetchRecords.Load(),
		oldest:       p.horizon,
		end:          p.next,
		compactions:  p.compactions.Load(),
	}
}
