package stream

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Dynamic consumer groups: multiple Members of one group share a topic by
// splitting its partitions (each record is delivered to exactly one
// member), and the assignment rebalances as members join and leave — the
// broker-side mechanism that lets the paper's multi-project pipelines
// scale consumers horizontally. The simpler Subscribe API remains for
// single-consumer jobs (manual assignment of every partition).

// ErrMemberLeft reports use of a member that left its group.
var ErrMemberLeft = errors.New("stream: member has left the group")

// membership tracks the dynamic members of one (group, topic) pair.
type membership struct {
	mu         sync.Mutex
	generation int
	members    []*Member // join order; assignment is round-robin over this
}

// Member is one dynamic participant in a consumer group.
type Member struct {
	broker  *Broker
	topic   string
	groupID string
	g       *group
	ms      *membership
	id      int
	start   StartPosition

	mu         sync.Mutex
	generation int     // last generation this member synced with
	assigned   []int   // partitions owned at that generation
	cursors    []int64 // indexed by partition; meaningful for assigned ones
	left       bool
	next       int
}

// JoinGroup adds a dynamic member to a consumer group on a topic,
// triggering a rebalance. Use Member.Leave when done.
func (b *Broker) JoinGroup(topicName, groupID string, start StartPosition) (*Member, error) {
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
	if g.memberships == nil {
		g.memberships = make(map[string]*membership)
	}
	ms, ok := g.memberships[topicName]
	if !ok {
		ms = &membership{}
		g.memberships[topicName] = ms
	}
	// Initialize committed offsets for the group if this is its first
	// contact with the topic.
	if _, ok := g.committed[topicName]; !ok {
		cursors := make([]int64, len(t.parts))
		for i, p := range t.parts {
			switch start {
			case StartLatest:
				cursors[i] = p.endOffset()
			default:
				cursors[i] = p.stats().oldest
			}
		}
		g.committed[topicName] = cursors
	}
	g.mu.Unlock()

	m := &Member{
		broker: b, topic: topicName, groupID: groupID, g: g, ms: ms,
		start: start,
	}
	ms.mu.Lock()
	m.id = len(ms.members)
	ms.members = append(ms.members, m)
	ms.generation++
	ms.mu.Unlock()
	return m, nil
}

// Leave removes the member, rebalancing its partitions to the others.
// Uncommitted progress is lost (commit first), as in the real system.
func (m *Member) Leave() {
	m.mu.Lock()
	if m.left {
		m.mu.Unlock()
		return
	}
	m.left = true
	m.mu.Unlock()

	m.ms.mu.Lock()
	for i, mm := range m.ms.members {
		if mm == m {
			m.ms.members = append(m.ms.members[:i], m.ms.members[i+1:]...)
			break
		}
	}
	m.ms.generation++
	m.ms.mu.Unlock()
}

// assignmentLocked computes the member's partitions under the current
// generation: round-robin by position in the join order.
func (m *Member) syncAssignment(t *topic) error {
	m.ms.mu.Lock()
	gen := m.ms.generation
	pos := -1
	n := len(m.ms.members)
	for i, mm := range m.ms.members {
		if mm == m {
			pos = i
			break
		}
	}
	m.ms.mu.Unlock()
	if pos < 0 {
		return ErrMemberLeft
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.generation == gen {
		return nil
	}
	// Rebalance: adopt the group's committed offsets for newly assigned
	// partitions (progress others committed is honored; our uncommitted
	// progress on lost partitions is discarded).
	var assigned []int
	for p := 0; p < len(t.parts); p++ {
		if p%n == pos {
			assigned = append(assigned, p)
		}
	}
	m.g.mu.Lock()
	committed := m.g.committed[m.topic]
	m.g.mu.Unlock()
	cursors := make([]int64, len(t.parts))
	for _, p := range assigned {
		if p < len(committed) {
			cursors[p] = committed[p]
		}
	}
	m.assigned = assigned
	m.cursors = cursors
	m.generation = gen
	return nil
}

// Assignment returns the member's currently owned partitions.
func (m *Member) Assignment() ([]int, error) {
	t, err := m.broker.topic(m.topic)
	if err != nil {
		return nil, err
	}
	if err := m.syncAssignment(t); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]int(nil), m.assigned...), nil
}

// Poll returns up to max records from the member's assigned partitions,
// blocking until data arrives or ctx is done. A rebalance between polls
// is picked up transparently.
func (m *Member) Poll(ctx context.Context, max int) ([]Record, error) {
	if max <= 0 {
		max = 1024
	}
	t, err := m.broker.topic(m.topic)
	if err != nil {
		return nil, err
	}
	if err := m.broker.fault("broker.fetch", m.topic); err != nil {
		return nil, err
	}
	for {
		if err := m.syncAssignment(t); err != nil {
			return nil, err
		}
		m.mu.Lock()
		assigned := append([]int(nil), m.assigned...)
		out, err := t.pollAssigned(assigned, m.next, m.cursors, max)
		if err == nil && len(out) > 0 {
			m.next = (m.next + 1) % len(assigned)
		}
		m.mu.Unlock()
		if err != nil || len(out) > 0 {
			return out, err
		}
		if len(assigned) == 0 {
			// Over-provisioned group: no partitions; wait for rebalance.
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(10 * time.Millisecond):
				continue
			}
		}
		chans, closed := t.notifiers(assigned)
		if closed {
			return nil, ErrBrokerClosed
		}
		// Wake periodically to notice rebalances even without new data.
		wctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		err = waitAny(wctx, chans)
		cancel()
		if err != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
}

// Commit persists the member's cursors for its assigned partitions into
// the group's committed offsets.
func (m *Member) Commit() error {
	t, err := m.broker.topic(m.topic)
	if err != nil {
		return err
	}
	if err := m.syncAssignment(t); err != nil {
		return err
	}
	m.mu.Lock()
	assigned, cursors := m.assigned, append([]int64(nil), m.cursors...)
	m.mu.Unlock()
	m.g.mu.Lock()
	committed := m.g.committed[m.topic]
	for _, p := range assigned {
		if p < len(committed) && cursors[p] > committed[p] {
			committed[p] = cursors[p]
		}
	}
	m.g.mu.Unlock()
	return nil
}

// GroupInfo describes a group's dynamic membership on a topic.
type GroupInfo struct {
	Group      string
	Topic      string
	Members    int
	Generation int
	Committed  []int64
}

// GroupState reports a group's membership and committed offsets.
func (b *Broker) GroupState(groupID, topicName string) (GroupInfo, error) {
	b.mu.RLock()
	g, ok := b.groups[groupID]
	b.mu.RUnlock()
	if !ok {
		return GroupInfo{}, fmt.Errorf("stream: no such group %q", groupID)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	info := GroupInfo{Group: groupID, Topic: topicName}
	info.Committed = append([]int64(nil), g.committed[topicName]...)
	if g.memberships != nil {
		if ms, ok := g.memberships[topicName]; ok {
			ms.mu.Lock()
			info.Members = len(ms.members)
			info.Generation = ms.generation
			ms.mu.Unlock()
		}
	}
	return info, nil
}

// sortInts is a tiny helper for deterministic test output.
func sortInts(v []int) []int { sort.Ints(v); return v }
