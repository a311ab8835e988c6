package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// group holds committed offsets for one consumer group, plus the dynamic
// membership per topic when Members join via JoinGroup.
type group struct {
	mu          sync.Mutex
	committed   map[string][]int64 // topic -> per-partition committed offset (next to read)
	memberships map[string]*membership
}

// Consumer reads one topic on behalf of a consumer group, tracking a
// cursor per partition. Offsets advance on Poll and persist on Commit;
// a new Consumer for the same group resumes from the committed offsets,
// which is the broker-side half of the stream processor's exactly-once
// restart story.
type Consumer struct {
	broker  *Broker
	topic   string
	groupID string
	g       *group

	mu       sync.Mutex
	assigned []int // every partition, fixed at Subscribe
	cursors  []int64
	next     int // round-robin partition scan position
}

// Subscribe attaches a consumer group to a topic. StartAt controls where a
// group with no committed offsets begins: StartEarliest replays the full
// retained log, StartLatest reads only new records.
func (b *Broker) Subscribe(topicName, groupID string, start StartPosition) (*Consumer, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	g, ok := b.groups[groupID]
	if !ok {
		g = &group{committed: make(map[string][]int64)}
		b.groups[groupID] = g
	}
	b.mu.Unlock()

	g.mu.Lock()
	defer g.mu.Unlock()
	cursors, ok := g.committed[topicName]
	if !ok {
		cursors = make([]int64, len(t.parts))
		for i, p := range t.parts {
			switch start {
			case StartLatest:
				cursors[i] = p.endOffset()
			default: // StartEarliest
				cursors[i] = p.stats().oldest
			}
		}
	}
	c := &Consumer{
		broker: b, topic: topicName, groupID: groupID, g: g,
		assigned: make([]int, len(t.parts)),
		cursors:  append([]int64(nil), cursors...),
	}
	for i := range c.assigned {
		c.assigned[i] = i
	}
	return c, nil
}

// StartPosition selects where a fresh consumer group begins reading.
type StartPosition int

const (
	// StartEarliest begins at the oldest retained record.
	StartEarliest StartPosition = iota
	// StartLatest begins at the end of the log (new records only).
	StartLatest
)

// Poll returns up to max records across partitions, blocking until at
// least one record is available or ctx is done. Partitions are scanned
// round-robin so a hot partition cannot starve the others.
func (c *Consumer) Poll(ctx context.Context, max int) ([]Record, error) {
	if max <= 0 {
		max = 1024
	}
	t, err := c.broker.topic(c.topic)
	if err != nil {
		return nil, err
	}
	if err := c.broker.fault("broker.fetch", c.topic); err != nil {
		return nil, err
	}
	for {
		c.mu.Lock()
		out, err := t.pollAssigned(c.assigned, c.next, c.cursors, max)
		if err == nil && len(out) > 0 {
			c.next = (c.next + 1) % len(c.assigned)
		}
		c.mu.Unlock()
		if err != nil || len(out) > 0 {
			return out, err
		}
		// Nothing available anywhere: wait on every partition's notifier.
		chans, closed := t.notifiers(c.assigned)
		if closed {
			return nil, ErrBrokerClosed
		}
		if err := waitAny(ctx, chans); err != nil {
			return nil, err
		}
	}
}

// pollAssigned is one non-blocking pass over an assignment, shared by
// Consumer (a fixed full assignment) and Member (a rebalanced share): it
// reads up to max records from the assigned partitions, starting at
// rotation next, and advances cursors (indexed by partition) past what it
// returns.
func (t *topic) pollAssigned(assigned []int, next int, cursors []int64, max int) ([]Record, error) {
	var out []Record
	for i := 0; i < len(assigned) && len(out) < max; i++ {
		p := assigned[(next+i)%len(assigned)]
		recs, err := t.parts[p].fetchNoWait(cursors[p], max-len(out))
		if errors.Is(err, ErrOffsetTrimmed) {
			// Retention passed our cursor; skip forward rather than
			// stall (records were lost to retention, by design).
			cursors[p] = t.parts[p].stats().oldest
			recs, err = t.parts[p].fetchNoWait(cursors[p], max-len(out))
		}
		if err != nil {
			return nil, err
		}
		if len(recs) > 0 {
			// Advance past the last delivered offset (the log may
			// have compaction holes, so cursor+len is not valid).
			cursors[p] = recs[len(recs)-1].Offset + 1
			out = append(out, recs...)
		}
	}
	return out, nil
}

// notifiers returns the assigned partitions' append-notification
// channels and whether every one of those partitions is closed.
func (t *topic) notifiers(assigned []int) (chans []chan struct{}, closed bool) {
	chans = make([]chan struct{}, 0, len(assigned))
	closed = true
	for _, p := range assigned {
		part := t.parts[p]
		part.mu.Lock()
		if !part.closed {
			closed = false
		}
		chans = append(chans, part.notify)
		part.mu.Unlock()
	}
	return chans, closed
}

// waitAny blocks until any channel closes or ctx is done.
func waitAny(ctx context.Context, chans []chan struct{}) error {
	if len(chans) == 1 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-chans[0]:
			return nil
		}
	}
	agg := make(chan struct{}, 1)
	stop := make(chan struct{})
	defer close(stop)
	for _, ch := range chans {
		go func(ch chan struct{}) {
			select {
			case <-ch:
				select {
				case agg <- struct{}{}:
				default:
				}
			case <-stop:
			}
		}(ch)
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-agg:
		return nil
	}
}

// Commit persists the consumer's current cursors as the group's committed
// offsets, so a future Subscribe resumes after the last polled record.
func (c *Consumer) Commit() {
	c.mu.Lock()
	cursors := append([]int64(nil), c.cursors...)
	c.mu.Unlock()
	c.g.mu.Lock()
	c.g.committed[c.topic] = cursors
	c.g.mu.Unlock()
}

// Committed returns the group's committed offsets for the topic.
func (c *Consumer) Committed() []int64 {
	c.g.mu.Lock()
	defer c.g.mu.Unlock()
	return append([]int64(nil), c.g.committed[c.topic]...)
}

// Position returns the consumer's current (uncommitted) cursors.
func (c *Consumer) Position() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.cursors...)
}

// Seek moves one partition cursor to an absolute offset.
func (c *Consumer) Seek(partition int, offset int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if partition < 0 || partition >= len(c.cursors) {
		return fmt.Errorf("%w: %s/%d", ErrNoPartition, c.topic, partition)
	}
	c.cursors[partition] = offset
	return nil
}

// SeekToTime moves every cursor to the first record at or after ts,
// enabling time-based replay of retained history.
func (c *Consumer) SeekToTime(ts time.Time) error {
	t, err := c.broker.topic(c.topic)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, p := range t.parts {
		c.cursors[i] = p.offsetAtTime(ts)
	}
	return nil
}

// Lag returns, per partition, how many records remain between the cursor
// and the end of the log.
func (c *Consumer) Lag() ([]int64, error) {
	t, err := c.broker.topic(c.topic)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	lags := make([]int64, len(t.parts))
	for i, p := range t.parts {
		lag := p.endOffset() - c.cursors[i]
		if lag < 0 {
			lag = 0
		}
		lags[i] = lag
	}
	return lags, nil
}
