// Package stream implements the STREAM tier of the odakit data services
// (Fig 5): a partitioned, offset-addressed FIFO log broker in the role the
// paper assigns to Apache Kafka — "FIFO buffers for in-flight data in
// distributed multi-project pipelines".
//
// A Broker hosts named topics; each topic is split into partitions; each
// partition is an append-only log addressed by monotonically increasing
// offsets. Producers publish key/value records (keys route to partitions);
// consumers read by offset, each through its own plane.Reader, so every
// one replays the retained log from its own position. Retention trims old
// records by bytes, which is how the STREAM tier keeps its bounded
// footprint while OCEAN and GLACIER hold history.
package stream

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Common errors returned by the broker.
var (
	ErrNoTopic        = errors.New("stream: no such topic")
	ErrTopicExists    = errors.New("stream: topic already exists")
	ErrNoPartition    = errors.New("stream: no such partition")
	ErrOffsetTrimmed  = errors.New("stream: offset below retention horizon")
	ErrBrokerClosed   = errors.New("stream: broker closed")
	ErrOffsetInFuture = errors.New("stream: offset beyond end of log")
)

// Record is one message in a partition log. It does not repeat which
// topic and partition it came from: a fetch names both, and every reader
// receives records a (topic, partition) page at a time.
type Record struct {
	Offset int64
	Ts     time.Time
	Key    []byte
	Value  []byte
}

func (r Record) size() int64 { return int64(len(r.Key) + len(r.Value) + 32) }

// TopicConfig controls a topic's partitioning and retention.
type TopicConfig struct {
	// Partitions is the number of partition logs; defaults to 4.
	Partitions int
	// RetentionBytes caps the byte footprint per partition; 0 = unlimited.
	RetentionBytes int64
}

func (c TopicConfig) withDefaults() TopicConfig {
	if c.Partitions <= 0 {
		c.Partitions = 4
	}
	return c
}

// Broker hosts topics. It is safe for concurrent use by any number of
// producers and consumers.
type Broker struct {
	mu     sync.RWMutex
	topics map[string]*topic
	closed bool
	// faultHook, when set, is consulted before fetch and publish
	// operations ("broker.fetch" / "broker.publish" with the topic as
	// target); a non-nil result aborts the operation before any state
	// changes, so callers can retry without duplicating records. The
	// chaos injector (internal/faults) installs here.
	faultHook func(op, target string) error
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{topics: make(map[string]*topic)}
}

// SetFaultHook installs (or, with nil, removes) the fault-injection
// hook consulted before fetch and publish operations.
func (b *Broker) SetFaultHook(h func(op, target string) error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.faultHook = h
}

// fault consults the injection hook for one operation; nil when no hook
// is installed or the hook lets the operation proceed.
func (b *Broker) fault(op, target string) error {
	b.mu.RLock()
	h := b.faultHook
	b.mu.RUnlock()
	if h == nil {
		return nil
	}
	return h(op, target)
}

// CreateTopic creates a topic. It fails if the topic already exists.
func (b *Broker) CreateTopic(name string, cfg TopicConfig) error {
	cfg = cfg.withDefaults()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrBrokerClosed
	}
	if _, ok := b.topics[name]; ok {
		return fmt.Errorf("%w: %s", ErrTopicExists, name)
	}
	t := &topic{name: name, cfg: cfg}
	for i := 0; i < cfg.Partitions; i++ {
		t.parts = append(t.parts, newPartition(name, i))
	}
	b.topics[name] = t
	return nil
}

// EnsureTopic creates the topic if it does not already exist.
func (b *Broker) EnsureTopic(name string, cfg TopicConfig) error {
	err := b.CreateTopic(name, cfg)
	if errors.Is(err, ErrTopicExists) {
		return nil
	}
	return err
}

// Topics returns the sorted topic names.
func (b *Broker) Topics() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	names := make([]string, 0, len(b.topics))
	for n := range b.topics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DeleteTopic removes a topic and all of its records.
func (b *Broker) DeleteTopic(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrBrokerClosed
	}
	t, ok := b.topics[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTopic, name)
	}
	for _, p := range t.parts {
		p.markDeleted()
	}
	delete(b.topics, name)
	return nil
}

// Close shuts the broker down, waking any blocked consumers with an error.
func (b *Broker) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, t := range b.topics {
		for _, p := range t.parts {
			p.close()
		}
	}
}

func (b *Broker) topic(name string) (*topic, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, ErrBrokerClosed
	}
	t, ok := b.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTopic, name)
	}
	return t, nil
}

// Message is one key/value pair to publish: a keyed message goes to
// KeyPartition of its key, a keyless one round-robin.
type Message struct {
	Key   []byte
	Value []byte
}

// PartialPublishError reports a PublishBatch that landed some of its
// messages but not all: Failed holds exactly the unpublished messages,
// so a caller can retry just those without duplicating the rest.
// Unwrap exposes the underlying cause, so transient classification
// (resilience.IsTransient) sees through it.
type PartialPublishError struct {
	Published int
	Failed    []Message
	Err       error
}

func (e *PartialPublishError) Error() string {
	return fmt.Sprintf("stream: partial publish: %d published, %d failed: %v",
		e.Published, len(e.Failed), e.Err)
}

func (e *PartialPublishError) Unwrap() error { return e.Err }

// PublishBatch appends a batch of records to the topic, routing each by
// key hash (round-robin when the key is empty). Records landing on the
// same partition are appended under a single lock acquisition as one
// chunk, with one retention pass and one consumer wake-up; a single record
// is a batch of one. Relative order of messages sharing a partition is
// preserved. It returns the number of records published; a failure
// affecting only some partitions (an injected fault, a closed partition)
// surfaces as *PartialPublishError carrying the unpublished remainder for
// retry.
func (b *Broker) PublishBatch(topicName string, msgs []Message) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	t, err := b.topic(topicName)
	if err != nil {
		return 0, err
	}
	now := time.Now()
	if len(t.parts) == 1 {
		if err := b.fault("broker.publish", topicName); err != nil {
			return 0, err
		}
		if _, err := t.parts[0].appendBatch(now, msgs, t.cfg); err != nil {
			return 0, err
		}
		return len(msgs), nil
	}
	byPart := RouteBatch(&t.rr, msgs, len(t.parts))
	defer ReleaseBatch(byPart)
	// Stagger which partition each batch starts with: concurrent batches
	// all visiting partitions 0..N in lockstep would convoy on the same
	// mutexes.
	start := int(t.batchRR.Add(1) % uint64(len(t.parts)))
	published := 0
	var failed []Message
	var failErr error
	for k := range t.parts {
		p := (start + k) % len(t.parts)
		part := byPart.Group(p)
		if len(part) == 0 {
			continue
		}
		// The fault hook is consulted per partition sub-batch, before the
		// append mutates anything — an injected failure therefore loses a
		// whole sub-batch or nothing, and the remainder is reported back
		// for exactly-once retry.
		err := b.fault("broker.publish", topicName)
		if err == nil {
			_, err = t.parts[p].appendBatch(now, part, t.cfg)
		}
		if err != nil {
			failed = append(failed, part...)
			failErr = err
			continue
		}
		published += len(part)
	}
	if failErr != nil {
		return published, &PartialPublishError{Published: published, Failed: failed, Err: failErr}
	}
	return published, nil
}

// PublishBatchTo appends a batch of messages to one explicit partition
// under a single lock acquisition, returning the offset assigned to the
// first message. The cluster's partition leaders use it so a replicated
// publish is one contiguous offset range on the leader log.
func (b *Broker) PublishBatchTo(topicName string, partition int, msgs []Message) (int64, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return 0, err
	}
	if partition < 0 || partition >= len(t.parts) {
		return 0, fmt.Errorf("%w: %s/%d", ErrNoPartition, topicName, partition)
	}
	if err := b.fault("broker.publish", topicName); err != nil {
		return 0, err
	}
	return t.parts[partition].appendBatch(time.Now(), msgs, t.cfg)
}

// ReplicateBatch appends records copied verbatim from a leader's log,
// preserving their leader-assigned offsets and timestamps so this
// broker's partition is a byte-identical prefix of the leader's.
// Records the partition already holds are skipped, so re-delivery after
// a failed replication session is idempotent.
func (b *Broker) ReplicateBatch(topicName string, partition int, recs []Record) error {
	t, err := b.topic(topicName)
	if err != nil {
		return err
	}
	if partition < 0 || partition >= len(t.parts) {
		return fmt.Errorf("%w: %s/%d", ErrNoPartition, topicName, partition)
	}
	return t.parts[partition].replicateBatch(recs, t.cfg)
}

// Partitions returns the partition count of a topic.
func (b *Broker) Partitions(topicName string) (int, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return 0, err
	}
	return len(t.parts), nil
}

// EndOffset returns the next offset that will be assigned in a partition.
func (b *Broker) EndOffset(topicName string, partition int) (int64, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return 0, err
	}
	if partition < 0 || partition >= len(t.parts) {
		return 0, fmt.Errorf("%w: %s/%d", ErrNoPartition, topicName, partition)
	}
	return t.parts[partition].endOffset(), nil
}

// Fetch reads up to max records from a partition starting at offset,
// blocking until at least one record is available or ctx is done.
func (b *Broker) Fetch(ctx context.Context, topicName string, partition int, offset int64, max int) ([]Record, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return nil, err
	}
	if partition < 0 || partition >= len(t.parts) {
		return nil, fmt.Errorf("%w: %s/%d", ErrNoPartition, topicName, partition)
	}
	if err := b.fault("broker.fetch", topicName); err != nil {
		return nil, err
	}
	return t.parts[partition].fetch(ctx, offset, max)
}

// FetchNoWait reads up to max records from a partition starting at
// offset, returning immediately with whatever is available (possibly
// nothing). Offset semantics match Fetch: below the retention horizon is
// ErrOffsetTrimmed, beyond the end of the log is ErrOffsetInFuture.
func (b *Broker) FetchNoWait(topicName string, partition int, offset int64, max int) ([]Record, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return nil, err
	}
	if partition < 0 || partition >= len(t.parts) {
		return nil, fmt.Errorf("%w: %s/%d", ErrNoPartition, topicName, partition)
	}
	if err := b.fault("broker.fetch", topicName); err != nil {
		return nil, err
	}
	return t.parts[partition].fetchNoWait(offset, max)
}

// OldestOffset returns the lowest offset still addressable in a
// partition (the retention horizon).
func (b *Broker) OldestOffset(topicName string, partition int) (int64, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return 0, err
	}
	if partition < 0 || partition >= len(t.parts) {
		return 0, fmt.Errorf("%w: %s/%d", ErrNoPartition, topicName, partition)
	}
	return t.parts[partition].stats().oldest, nil
}

// TopicStats aggregates counters across a topic's partitions.
type TopicStats struct {
	Topic         string
	Partitions    int
	Records       int64 // records currently retained
	Bytes         int64 // bytes currently retained
	TotalRecords  int64 // records ever published
	TotalBytes    int64 // bytes ever published
	FetchRecords  int64 // records ever served to consumers
	OldestOffsets []int64
	EndOffsets    []int64
}

// Stats returns current counters for a topic.
func (b *Broker) Stats(topicName string) (TopicStats, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return TopicStats{}, err
	}
	s := TopicStats{Topic: topicName, Partitions: len(t.parts)}
	for _, p := range t.parts {
		ps := p.stats()
		s.Records += ps.records
		s.Bytes += ps.bytes
		s.TotalRecords += ps.totalRecords
		s.TotalBytes += ps.totalBytes
		s.FetchRecords += ps.fetchRecords
		s.OldestOffsets = append(s.OldestOffsets, ps.oldest)
		s.EndOffsets = append(s.EndOffsets, ps.end)
	}
	return s, nil
}

// KeyPartition is the keyed-message router: FNV-1a of the key (inlined,
// identical to hash/fnv, so the per-record publish path stays
// allocation-free) modulo the partition count. Every STREAM
// implementation routes through it, which is what keeps a key on the
// same partition whether it is published to a broker or to a cluster.
func KeyPartition(key []byte, parts int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, b := range key {
		h = (h ^ uint32(b)) * prime32
	}
	return int(h % uint32(parts))
}
