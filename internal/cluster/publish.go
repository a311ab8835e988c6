package cluster

import (
	"context"
	"errors"
	"fmt"

	"odakit/internal/resilience"
	"odakit/internal/stream"
)

// fingerprintMsgs identifies a publish batch for retry deduplication.
func fingerprintMsgs(msgs []stream.Message) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b []byte) {
		h = (h ^ uint64(len(b))) * prime64
		for _, c := range b {
			h = (h ^ uint64(c)) * prime64
		}
	}
	for _, m := range msgs {
		mix(m.Key)
		mix(m.Value)
	}
	return h
}

// route picks a message's partition the way a single broker does: the
// shared keyed router, cluster-level round-robin when keyless.
func (t *topicState) route(key []byte) int {
	if len(key) == 0 {
		return int(t.rr.Add(1) % uint64(len(t.parts)))
	}
	return stream.KeyPartition(key, len(t.parts))
}

// PublishBatch publishes a batch through the cluster: each message
// routes to a partition (key hash, cluster-level round-robin when
// keyless — identical placement to a single broker for keyed messages),
// the partition leader appends it, and followers replicate it before
// the batch commits and becomes readable.
//
// Retry semantics: on error, retry the same batch. Keyed messages are
// exactly-once — each partition remembers its staged (appended but
// uncommitted) batch by fingerprint and resumes the commit instead of
// re-appending, even across a leader failover that lost part of the
// staged suffix. Keyless messages re-route through the round-robin
// cursor on retry and may duplicate; use keys when replay matters.
func (c *Cluster) PublishBatch(topicName string, msgs []stream.Message) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	t, err := c.topic(topicName)
	if err != nil {
		return 0, err
	}
	byPart := make([][]stream.Message, len(t.parts))
	for _, m := range msgs {
		p := t.route(m.Key)
		byPart[p] = append(byPart[p], m)
	}
	published := 0
	var failed []stream.Message
	var failErr error
	for p, sub := range byPart {
		if len(sub) == 0 {
			continue
		}
		if _, err := c.publishPart(t, t.parts[p], sub); err != nil {
			failed = append(failed, sub...)
			failErr = err
			continue
		}
		published += len(sub)
	}
	if failErr != nil {
		return published, &stream.PartialPublishError{Published: published, Failed: failed, Err: failErr}
	}
	// The whole batch committed and the caller is about to observe
	// success, so no retry of it can arrive: drop each partition's dedup
	// state. Until this point it must survive — a partial failure retries
	// the full batch, and the partitions that already committed dedupe
	// their sub-batches by fingerprint. Dropping it now is what lets a
	// later batch with identical content (heartbeats, constant-valued
	// events) append as a new publish instead of being silently deduped.
	for p, sub := range byPart {
		if len(sub) == 0 {
			continue
		}
		c.ackCommitted(t.parts[p], fingerprintMsgs(sub), len(sub))
	}
	return published, nil
}

// ackCommitted drops a partition's committed-batch dedup state once the
// publisher has observed success for its whole batch. A mismatched
// fingerprint means another publisher already staged new work; leave it.
func (c *Cluster) ackCommitted(ps *partitionState, fp uint64, n int) {
	ps.mu.Lock()
	if st := ps.inflight; st != nil && st.committed && st.fp == fp && st.n == n {
		ps.inflight = nil
	}
	ps.mu.Unlock()
}

// Publish publishes one record, returning its partition and committed
// offset.
func (c *Cluster) Publish(topicName string, key, value []byte) (int, int64, error) {
	t, err := c.topic(topicName)
	if err != nil {
		return 0, 0, err
	}
	p := t.route(key)
	ps := t.parts[p]
	msgs := []stream.Message{{Key: key, Value: value}}
	// publishPart reports the record's committed offset from the staged
	// region while it still holds the partition lock; reading hw-1 after
	// relocking would race with concurrent publishers to the partition.
	off, err := c.publishPart(t, ps, msgs)
	if err != nil {
		return 0, 0, err
	}
	c.ackCommitted(ps, fingerprintMsgs(msgs), len(msgs))
	return p, off, nil
}

// publishPart runs one partition's publish protocol: stage the batch on
// the leader log, replicate [hw, leaderEnd) to followers, commit (advance
// hw) once Quorum replicas hold it. The partition lock serializes
// publishes, so at most one staged batch exists at a time — that is what
// lets a fingerprint match identify "the same batch, retried". It
// returns the batch's first committed offset, taken from the staged
// region while the lock is held.
func (c *Cluster) publishPart(t *topicState, ps *partitionState, msgs []stream.Message) (int64, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := c.ensureLeaderLocked(t, ps); err != nil {
		return 0, err
	}
	fp := fingerprintMsgs(msgs)
	if st := ps.inflight; st != nil && st.fp == fp && st.n == len(msgs) {
		// The same batch, retried: it is already on the leader log (or
		// partially, after a failover). Resume the commit, never
		// re-append the whole batch.
		if st.committed {
			return st.first, nil // a Repair pass finished the commit for us
		}
		return c.commitStagedLocked(t, ps, msgs)
	}
	if st := ps.inflight; st != nil && !st.committed {
		// A different batch while one is staged: its publisher gave up
		// retrying. Resolve the old region first (commit whatever the
		// leader log holds) so a single staged region remains.
		if err := c.commitSuffixLocked(t, ps); err != nil {
			return 0, err
		}
	}
	ps.inflight = nil
	first, err := c.stageOnLeaderLocked(t, ps, msgs)
	if err != nil {
		return 0, err
	}
	ps.inflight = &staged{fp: fp, n: len(msgs), first: first}
	return c.commitStagedLocked(t, ps, msgs)
}

// commitStagedLocked finishes committing the staged batch, re-appending
// whatever suffix a failover lost, and returns the batch's first
// committed offset. The new leader's end offset can only be inside
// [hw, first+n]: below first+n when the promoted follower had not
// replicated the whole staged batch, never above because the partition
// lock admits no other publish while a batch is staged.
func (c *Cluster) commitStagedLocked(t *topicState, ps *partitionState, msgs []stream.Message) (int64, error) {
	if err := c.ensureLeaderLocked(t, ps); err != nil {
		return 0, err
	}
	st := ps.inflight
	if st == nil {
		// A failover between retries dropped the staged region below hw:
		// the whole batch is gone from every surviving log. Re-stage it.
		first, err := c.stageOnLeaderLocked(t, ps, msgs)
		if err != nil {
			return 0, err
		}
		st = &staged{fp: fingerprintMsgs(msgs), n: len(msgs), first: first}
		ps.inflight = st
	}
	ld := c.node(ps.leader)
	if ld == nil || !ld.Alive() {
		return 0, &nodeDownError{id: ps.leader}
	}
	end, err := ld.Broker.EndOffset(t.name, ps.idx)
	if err != nil {
		return 0, err
	}
	want := st.first + int64(st.n)
	if end > want {
		return 0, fmt.Errorf("cluster: %s/%d leader end %d beyond staged region end %d",
			t.name, ps.idx, end, want)
	}
	if end < want {
		// Failover lost a suffix of the staged batch; re-append exactly
		// the missing tail so the region is contiguous again.
		missing := msgs
		if end > st.first {
			missing = msgs[end-st.first:]
		}
		first2, err := c.stageOnLeaderLocked(t, ps, missing)
		if err != nil {
			return 0, err
		}
		if first2 != end {
			return 0, fmt.Errorf("cluster: %s/%d staged re-append landed at %d, want %d",
				t.name, ps.idx, first2, end)
		}
		if end <= st.first {
			st.first = first2 // whole batch was lost; region restarts here
		}
	}
	if err := c.commitSuffixLocked(t, ps); err != nil {
		return 0, err
	}
	return st.first, nil
}

// commitSuffixLocked replicates the leader log's uncommitted suffix
// [hw, leaderEnd) to the followers and advances hw once Quorum replicas
// (leader included) hold it — the "followers ack before publish commits"
// half of the protocol. On a quorum miss the suffix stays staged and
// invisible; the error is transient so publishers retry.
func (c *Cluster) commitSuffixLocked(t *topicState, ps *partitionState) error {
	ld := c.node(ps.leader)
	if ld == nil || !ld.Alive() {
		return &nodeDownError{id: ps.leader}
	}
	lend, err := ld.Broker.EndOffset(t.name, ps.idx)
	if err != nil {
		return err
	}
	// A dead follower — or a follower set left short by a failover when
	// fewer than RF members were alive — would pin the partition below
	// quorum until the next repair pass; re-pick followers from live
	// members instead, so a node loss (or a restart that restores RF
	// live members) changes durability for exactly one commit — the
	// replacement is caught up inline below before it acks.
	refresh := len(ps.followers) < c.cfg.RF-1
	if !refresh {
		for _, r := range ps.followers {
			if n := c.node(r); n == nil || !n.Alive() {
				refresh = true
				break
			}
		}
	}
	if refresh {
		c.refreshFollowersLocked(ps)
	}
	ps.acked[ps.leader] = lend
	acks := 1
	var lastErr error
	type followerAck struct {
		id      string
		shipped bool
	}
	ackedFollowers := make([]followerAck, 0, len(ps.followers))
	for _, r := range ps.followers {
		shipped, err := c.syncFollowerLocked(t, ps, r, lend)
		if err != nil {
			lastErr = err
			continue
		}
		ackedFollowers = append(ackedFollowers, followerAck{id: r, shipped: shipped})
		acks++
	}
	if acks < c.cfg.Quorum {
		c.quorumFailures.Add(1)
		return &quorumError{topic: t.name, part: ps.idx, acks: acks, quorum: c.cfg.Quorum, cause: lastErr}
	}
	hwBefore := ps.hw
	if lend > ps.hw {
		ps.hw = lend
	}
	// WAL commit barriers, on the replicas whose knowledge changed this
	// pass: the leader when hw advanced, an acked follower when it also
	// shipped records (its log grew) or hw advanced. Quiescent repair
	// passes change nothing and write nothing. Barrier failures crash
	// the replica (walCrash) but never undo the quorum commit above.
	if name := partitionLog(t.name, ps.idx); ps.hw > hwBefore {
		_ = c.walCommitBarrier(ld, name, ps.hw, ps.epoch)
		for _, f := range ackedFollowers {
			if fn := c.node(f.id); fn != nil && fn.Alive() {
				_ = c.walCommitBarrier(fn, name, ps.hw, ps.epoch)
			}
		}
	} else {
		for _, f := range ackedFollowers {
			if !f.shipped {
				continue
			}
			if fn := c.node(f.id); fn != nil && fn.Alive() {
				_ = c.walCommitBarrier(fn, name, ps.hw, ps.epoch)
			}
		}
	}
	if ps.inflight != nil {
		// Keep the fingerprint: a publisher retrying this batch after a
		// transient error must still dedupe against it.
		ps.inflight.committed = true
		c.committed.Add(1)
	}
	return nil
}

// syncFollowerLocked ships the leader log to one follower until the
// follower holds [.., lend), returning whether any records moved. Each
// hop crosses the faultable transport under the retry policy;
// ReplicateBatch preserves leader offsets and skips records the
// follower already holds, so re-delivery after a failed session cannot
// duplicate or reorder. Shipped chunks land on the follower's WAL
// (append + fsync) before the loop continues — the follower's ack is
// only ever granted for durable records.
func (c *Cluster) syncFollowerLocked(t *topicState, ps *partitionState, id string, lend int64) (bool, error) {
	shipped := false
	f := c.node(id)
	if f == nil || !f.Alive() {
		return shipped, &nodeDownError{id: id}
	}
	ld := c.node(ps.leader)
	if ld == nil || !ld.Alive() {
		return shipped, &nodeDownError{id: ps.leader}
	}
	for {
		fend, err := f.Broker.EndOffset(t.name, ps.idx)
		if err != nil {
			return shipped, err
		}
		if fend >= lend {
			ps.acked[id] = fend
			return shipped, nil
		}
		var recs []stream.Record
		err = resilience.Retry(context.Background(), c.cfg.Retry, func() error {
			if err := c.transport.call(OpReplicate, ps.leader, id); err != nil {
				return err
			}
			var ferr error
			recs, ferr = ld.Broker.FetchNoWait(t.name, ps.idx, fend, 1024)
			if errors.Is(ferr, stream.ErrOffsetTrimmed) {
				// The follower is so far behind that the leader trimmed
				// past it (leader-log retention bounds catch-up replay).
				// Fast-forward to the leader's oldest retained offset;
				// ReplicateBatch adopts the gap.
				oldest, oerr := ld.Broker.OldestOffset(t.name, ps.idx)
				if oerr != nil {
					return oerr
				}
				recs, ferr = ld.Broker.FetchNoWait(t.name, ps.idx, oldest, 1024)
			}
			return ferr
		})
		if err != nil {
			return shipped, err
		}
		if len(recs) == 0 {
			return shipped, fmt.Errorf("cluster: %s/%d replication stalled at %d (leader end %d)",
				t.name, ps.idx, fend, lend)
		}
		if err := f.Broker.ReplicateBatch(t.name, ps.idx, recs); err != nil {
			return shipped, err
		}
		if err := c.walAppendRecords(f, partitionLog(t.name, ps.idx), recs); err != nil {
			return shipped, err
		}
		shipped = true
		c.replicated.Add(int64(len(recs)))
	}
}

// FetchNoWait reads committed records from the partition leader,
// capped at the high watermark — staged (unacked) records are never
// visible, which is what makes failover exactly-once for readers.
func (c *Cluster) FetchNoWait(topicName string, partition int, offset int64, max int) ([]stream.Record, error) {
	t, err := c.topic(topicName)
	if err != nil {
		return nil, err
	}
	if partition < 0 || partition >= len(t.parts) {
		return nil, fmt.Errorf("%w: %s/%d", stream.ErrNoPartition, topicName, partition)
	}
	ps := t.parts[partition]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := c.ensureLeaderLocked(t, ps); err != nil {
		return nil, err
	}
	if offset > ps.hw {
		return nil, stream.ErrOffsetInFuture
	}
	if offset == ps.hw {
		return nil, nil
	}
	if err := c.transport.call(OpFetch, routerID, ps.leader); err != nil {
		return nil, err
	}
	ld := c.node(ps.leader)
	recs, err := ld.Broker.FetchNoWait(t.name, ps.idx, offset, max)
	if err != nil {
		return nil, err
	}
	for i, r := range recs {
		if r.Offset >= ps.hw {
			recs = recs[:i]
			break
		}
	}
	return recs, nil
}

// EndOffset returns the partition's high watermark: the end of the
// committed, replicated prefix readers may consume.
func (c *Cluster) EndOffset(topicName string, partition int) (int64, error) {
	t, err := c.topic(topicName)
	if err != nil {
		return 0, err
	}
	if partition < 0 || partition >= len(t.parts) {
		return 0, fmt.Errorf("%w: %s/%d", stream.ErrNoPartition, topicName, partition)
	}
	ps := t.parts[partition]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.hw, nil
}

// OldestOffset returns the leader's oldest retained offset.
func (c *Cluster) OldestOffset(topicName string, partition int) (int64, error) {
	t, err := c.topic(topicName)
	if err != nil {
		return 0, err
	}
	if partition < 0 || partition >= len(t.parts) {
		return 0, fmt.Errorf("%w: %s/%d", stream.ErrNoPartition, topicName, partition)
	}
	ps := t.parts[partition]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := c.ensureLeaderLocked(t, ps); err != nil {
		return 0, err
	}
	ld := c.node(ps.leader)
	return ld.Broker.OldestOffset(t.name, ps.idx)
}
