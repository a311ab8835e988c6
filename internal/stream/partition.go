package stream

import (
	"fmt"
	"math"
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

// chunkMaxBytes bounds what one chunk accounts for, in the unit retention
// counts in (key + value + 32 per record); a larger batch splits. It caps
// what a partially trimmed head chunk can pin, keeps the arena far inside
// the uint32 end index, and holds a chunk to 32 768 records. Only a
// single record larger than the bound gets a larger chunk, of its own.
const chunkMaxBytes = 1 << 20

// chunk is one appended batch: the keys and values of its records back to
// back in one arena, and the end of every key and value in one
// pointer-free index, so record i has offset base+i and nothing per
// message holds a pointer. Neither slice is written after the chunk is
// queued, so fetched records alias data safely.
type chunk struct {
	base int64 // offset of record 0
	ts   time.Time
	data []byte
	ends []uint32 // ends[2i], ends[2i+1]: where record i's key and value end in data
	lo   int      // records retention trimmed from the front
}

func newChunk(base int64, ts time.Time, records, dataBytes int) chunk {
	return chunk{base: base, ts: ts, data: make([]byte, 0, dataBytes), ends: make([]uint32, 0, 2*records)}
}

func (c *chunk) add(key, value []byte) {
	c.data = append(c.data, key...)
	c.ends = append(c.ends, uint32(len(c.data)))
	c.data = append(c.data, value...)
	c.ends = append(c.ends, uint32(len(c.data)))
}

// chunkFits reports whether a chunk of n records and data arena bytes stays
// within chunkMaxBytes with one more record of m bytes; the first always
// fits.
func chunkFits(n, data, m int) bool {
	return n == 0 || data+m+32*(n+1) <= chunkMaxBytes
}

// records counts every record the chunk was built with, trimmed or not.
func (c *chunk) records() int { return len(c.ends) / 2 }

// bounds returns where record i's key starts and ends and its value ends.
func (c *chunk) bounds(i int) (ks, ke, ve uint32) {
	if i > 0 {
		ks = c.ends[2*i-1]
	}
	return ks, c.ends[2*i], c.ends[2*i+1]
}

// size is Record.size for record i.
func (c *chunk) size(i int) int64 {
	ks, _, ve := c.bounds(i)
	return int64(ve-ks) + 32
}

// partition is one append-only log, held as a queue of chunks in offset
// order, one per appended batch, so a log allocates each byte once — an
// arena and an index per batch — and retention frees a batch's arena when
// its last record is trimmed (the head chunk trims record by record
// through lo and pins at most its own arena, chunkMaxBytes). Readers
// locate offsets by binary search on base, which also steps over the one
// kind of hole a log can have: a replication gap ReplicateBatch adopted.
// The queue itself is a ring of chunk headers that stops growing once
// retention bounds the live set. horizon is the lowest offset still
// addressable (reads below it fail with ErrOffsetTrimmed); next is the
// offset the next append will take.
type partition struct {
	topic string
	id    int

	mu      sync.Mutex
	horizon int64
	next    int64
	// The live chunks are q[(head+i)&(len(q)-1)] for i in [0, nq); len(q)
	// is zero or a power of two.
	q      []chunk
	head   int
	nq     int
	count  int // live records across the queue
	bytes  int64
	closed bool
	// deleted marks a partition whose topic was removed via DeleteTopic,
	// as opposed to a broker shutdown. Readers holding a stale *topic
	// (a fetch that resolved it first, a parked reader) must see the
	// topic-not-found error, never leftover records or ErrBrokerClosed.
	deleted bool
	// notify wakes parked readers (a channel, so a reader selects over
	// many partitions and its ctx): the first ready call that has to wait
	// makes it, the next append or close closes it and sets it back to
	// nil. With nobody parked an append allocates and closes nothing.
	notify chan struct{}

	totalRecords atomic.Int64
	totalBytes   atomic.Int64
	fetchRecords atomic.Int64
}

func newPartition(topic string, id int) *partition {
	return &partition{topic: topic, id: id}
}

// chunkAt returns the i-th live chunk (0 = oldest); the caller must hold
// p.mu and ensure 0 <= i < p.nq.
func (p *partition) chunkAt(i int) *chunk {
	return &p.q[(p.head+i)&(len(p.q)-1)]
}

// queueLocked appends a finished chunk at the tail and accounts for its
// records, growing the ring of headers only while the number of live
// chunks is still growing.
func (p *partition) queueLocked(c chunk) {
	if p.nq == len(p.q) {
		nq := make([]chunk, max(8, 2*len(p.q)))
		for i := 0; i < p.nq; i++ {
			nq[i] = *p.chunkAt(i)
		}
		p.q, p.head = nq, 0
	}
	n := c.records()
	sz := int64(len(c.data)) + 32*int64(n)
	p.nq++
	*p.chunkAt(p.nq - 1) = c
	p.next = c.base + int64(n)
	p.count += n
	p.bytes += sz
	p.totalRecords.Add(int64(n))
	p.totalBytes.Add(sz)
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

// wakeLocked releases every reader parked on the partition.
func (p *partition) wakeLocked() {
	if p.notify != nil {
		close(p.notify)
		p.notify = nil
	}
}

// markDeleted closes the partition for topic deletion: the queue is
// dropped so no stale record can be served to a reader that resolved the
// topic before DeleteTopic won the race, and the deleted flag turns every
// later read into ErrNoTopic.
func (p *partition) markDeleted() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.deleted = true
	p.q, p.head, p.nq, p.count, p.bytes = nil, 0, 0, 0, 0
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

// appendBatch appends every message in order under one lock acquisition,
// then runs retention once and wakes parked readers once — the one
// append behind PublishBatch and PublishBatchTo. It returns the offset
// assigned to the first message of the batch. Callers may reuse their
// message buffers after it returns: keys and values are copied, once,
// into the chunk's arena.
func (p *partition) appendBatch(ts time.Time, msgs []Message, cfg TopicConfig) (int64, error) {
	if len(msgs) == 0 {
		return p.endOffset(), nil
	}
	for i := range msgs {
		if n := uint64(len(msgs[i].Key)) + uint64(len(msgs[i].Value)); n > math.MaxUint32 {
			return 0, fmt.Errorf("stream: %s/%d: %d-byte message exceeds the 4 GiB record limit", p.topic, p.id, n)
		}
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0, ErrBrokerClosed
	}
	first := p.next
	for len(msgs) > 0 {
		// One chunk takes as many messages as fit the bound — all of
		// them, for any ordinary batch.
		n, data := 0, 0
		for n < len(msgs) {
			m := len(msgs[n].Key) + len(msgs[n].Value)
			if !chunkFits(n, data, m) {
				break
			}
			data += m
			n++
		}
		c := newChunk(p.next, ts, n, data)
		for i := range msgs[:n] {
			c.add(msgs[i].Key, msgs[i].Value)
		}
		p.queueLocked(c)
		msgs = msgs[n:]
	}
	p.enforceRetentionLocked(cfg)
	p.wakeLocked()
	p.mu.Unlock()
	return first, nil
}

// replicateBatch appends records copied from a leader's log, preserving
// the leader-assigned offsets and timestamps so the follower's log is a
// byte-identical prefix of the leader's. Records at offsets the follower
// already holds are skipped (idempotent re-delivery), and an empty or
// lagging follower may jump forward past a retention gap — offsets only
// ever move monotonically. The source buffers belong to the transport, so
// they are copied like appendBatch copies: one chunk per run of
// consecutive offsets sharing a timestamp, which for a shipped leader
// batch is one chunk. A jump adopted while the log still holds records is
// a hole in its offsets, which readers step over.
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
	end := p.next
	for len(recs) > 0 {
		r0 := &recs[0]
		if r0.Offset < p.next {
			recs = recs[1:] // already replicated
			continue
		}
		if p.count == 0 {
			// Nothing retained: adopt the leader's horizon at this record.
			p.horizon = r0.Offset
		}
		n, data := 0, 0
		for n < len(recs) {
			r := &recs[n]
			m := len(r.Key) + len(r.Value)
			if r.Offset != r0.Offset+int64(n) || r.Ts != r0.Ts || !chunkFits(n, data, m) {
				break
			}
			data += m
			n++
		}
		c := newChunk(r0.Offset, r0.Ts, n, data)
		for i := range recs[:n] {
			c.add(recs[i].Key, recs[i].Value)
		}
		p.queueLocked(c)
		recs = recs[n:]
	}
	if p.next == end { // nothing new
		p.mu.Unlock()
		return nil
	}
	p.enforceRetentionLocked(cfg)
	p.wakeLocked()
	p.mu.Unlock()
	return nil
}

// truncate cuts the log back so that its next record takes offset off:
// every record at or past off goes — whole chunks popped off the tail,
// the chunk the cut lands in shortened through its index. No arena byte
// is written, so records a reader already fetched stay valid; the
// retained count and bytes drop by exactly the records cut. A cut below
// the horizon empties the log and moves the horizon down to off.
func (p *partition) truncate(off int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.errIfDeletedLocked(); err != nil {
		return err
	}
	if p.closed {
		return ErrBrokerClosed
	}
	if off >= p.next {
		return nil
	}
	for p.nq > 0 {
		c := p.chunkAt(p.nq - 1)
		n := c.records()
		keep := c.lo
		if off > c.base+int64(c.lo) {
			keep = int(min(off-c.base, int64(n)))
		}
		for i := keep; i < n; i++ {
			p.bytes -= c.size(i)
		}
		p.count -= n - keep
		if keep > c.lo {
			c.ends = c.ends[:2*keep]
			c.data = c.data[:c.ends[2*keep-1]]
			break
		}
		*c = chunk{}
		p.nq--
	}
	p.next = off
	p.horizon = min(p.horizon, off)
	return nil
}

// enforceRetentionLocked trims the head, record by record, while the log
// holds more than RetentionBytes; a chunk whose last record goes is
// dequeued and its slot zeroed, which is what frees its arena.
func (p *partition) enforceRetentionLocked(cfg TopicConfig) {
	trimmed := false
	// RetentionBytes 0 is unlimited, and the newest record always stays.
	for cfg.RetentionBytes > 0 && p.bytes > cfg.RetentionBytes && p.count > 1 {
		c := p.chunkAt(0)
		p.bytes -= c.size(c.lo)
		p.count--
		trimmed = true
		if c.lo++; c.lo == c.records() {
			*c = chunk{}
			p.head = (p.head + 1) & (len(p.q) - 1)
			p.nq--
		}
	}
	if trimmed {
		c := p.chunkAt(0)
		p.horizon = c.base + int64(c.lo)
	}
}

// readLocked appends up to max records, starting at the first live record
// with Offset >= off, to dst and returns the extended slice (dst itself
// when there is none). Keys and values alias the chunk arenas,
// cap-limited so a caller's append cannot reach a neighbour; only the
// record headers are written into dst, so a reader that passes the same
// page back each time allocates nothing once the page has grown.
func (p *partition) readLocked(dst []Record, off int64, max int) []Record {
	ci := sort.Search(p.nq, func(i int) bool {
		c := p.chunkAt(i)
		return c.base+int64(c.records()) > off
	})
	if ci == p.nq {
		return dst
	}
	// Only the head chunk has a trimmed front, and off is at or above the
	// horizon, so the start inside the first chunk is never below its lo.
	c := p.chunkAt(ci)
	i := c.lo
	if off > c.base {
		i = int(off - c.base)
	}
	n := -i
	for k := ci; k < p.nq && n < max; k++ {
		n += p.chunkAt(k).records()
	}
	if n > max {
		n = max
	}
	if cap(dst)-len(dst) < n {
		dst = append(make([]Record, 0, len(dst)+n), dst...)
	}
	out := dst[len(dst) : len(dst)+n]
	for k := 0; k < n; ci, i = ci+1, 0 {
		c = p.chunkAt(ci)
		for ; i < c.records() && k < n; i, k = i+1, k+1 {
			ks, ke, ve := c.bounds(i)
			r := &out[k] // field by field: no temporary Record to copy
			r.Offset, r.Ts = c.base+int64(i), c.ts
			r.Key, r.Value = c.data[ks:ke:ke], c.data[ke:ve:ve]
		}
	}
	p.fetchRecords.Add(int64(n))
	return dst[:len(dst)+n]
}

// appendNoWait appends up to max records at offset to dst and returns at
// once, with none when there are none yet: below the horizon is
// ErrOffsetTrimmed, beyond the end of the log is ErrOffsetInFuture.
func (p *partition) appendNoWait(dst []Record, offset int64, max int) ([]Record, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.errIfDeletedLocked(); err != nil {
		return dst, err
	}
	if max <= 0 {
		max = 1024
	}
	if offset < p.horizon {
		return dst, ErrOffsetTrimmed
	}
	if offset > p.next {
		return dst, ErrOffsetInFuture
	}
	return p.readLocked(dst, offset, max), nil
}

// readyNow is what ready hands out when its condition already holds.
var readyNow = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// ready returns a channel closed once the log ends past off or the
// partition closes (a deleted partition is closed too).
func (p *partition) ready(off int64) <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.next > off || p.closed {
		return readyNow
	}
	if p.notify == nil {
		p.notify = make(chan struct{})
	}
	return p.notify
}

type partitionStats struct {
	records, bytes            int64
	totalRecords, totalBytes  int64
	fetchRecords, oldest, end int64
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
	}
}
