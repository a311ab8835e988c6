package cluster

import (
	"context"
	"errors"
	"fmt"

	"odakit/internal/resilience"
	"odakit/internal/stream"
)

// PublishBatch publishes a batch through the cluster: each message
// routes to a partition (key hash, cluster-level round-robin when
// keyless — identical placement to a single broker for keyed messages),
// the partition leader appends it, and followers replicate it before
// the batch commits and becomes readable. With WALs, every touched
// replica log is flushed in one wave (see publishParts) and a replica
// counts toward its partition's quorum only after its own log's Sync.
//
// A failure on some partitions is a *stream.PartialPublishError, as on a
// single broker, and it means the same: the Failed messages are not in
// the log and never will be unless they are published again. Every
// replica trusts only its acked prefix and cuts anything past it before
// it takes an append, so a sub-batch that missed its quorum is gone by
// the partition's next publish. Retrying Failed therefore lands each
// message once — keyed or keyless, with any number of publishers.
func (c *Cluster) PublishBatch(topicName string, msgs []stream.Message) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	t, err := c.topic(topicName)
	if err != nil {
		return 0, err
	}
	// The sub-batches live in pooled scratch (or are msgs itself when one
	// partition takes the whole batch): the logs copy what they append and
	// Failed below is a fresh slice, so nothing holds it past this call.
	byPart := stream.RouteBatch(&t.rr, msgs, len(t.parts))
	defer stream.ReleaseBatch(byPart)
	subs := make([]partBatch, 0, len(t.parts))
	for p, ps := range t.parts {
		if sub := byPart.Group(p); len(sub) > 0 {
			subs = append(subs, partBatch{ps: ps, msgs: sub})
		}
	}
	c.publishParts(t, subs)
	published := 0
	var failed []stream.Message
	var failErr error
	for i := range subs {
		if subs[i].err != nil {
			failed = append(failed, subs[i].msgs...)
			failErr = subs[i].err
			continue
		}
		published += len(subs[i].msgs)
	}
	if failErr != nil {
		return published, &stream.PartialPublishError{Published: published, Failed: failed, Err: failErr}
	}
	return published, nil
}

// partBatch is one partition's share of a publish: the sub-batch going
// in, its error coming out.
type partBatch struct {
	ps   *partitionState
	msgs []stream.Message

	pending *pendingCommit // staged, waiting for the wave
	err     error
}

// publishParts runs the publish protocol over the touched partitions of
// one topic (subs ascending by partition index, which is the lock
// order). Three steps under all of their locks:
//
//  1. stage — per partition, on this goroutine, in index order: cut the
//     leader log back to hw and append (broker log + WAL), then ship
//     [hw, leaderEnd) to followers (broker log + WAL). Nothing is
//     flushed, nothing acked.
//  2. one flush wave — every WAL log step 1 dirtied, Sync'd concurrently.
//  3. commit — per partition: count the replicas whose log flushed, and
//     at Quorum ack them, advance hw and append commit barriers.
//
// The lock decides every commit, so when this returns each sub-batch's
// fate is known: committed, or left past hw on the replicas that took
// it, where the partition's next append cuts it. Paths that take one
// partition lock at a time (fetch, Kill, Restart's replay, Repair)
// cannot deadlock against the ascending multi-lock here.
func (c *Cluster) publishParts(t *topicState, subs []partBatch) {
	for i := range subs {
		subs[i].ps.mu.Lock()
	}
	defer func() {
		for i := range subs {
			subs[i].ps.mu.Unlock()
		}
	}()
	var wave flushWave
	for i := range subs {
		sb := &subs[i]
		sb.pending, sb.err = c.stagePartLocked(t, sb, &wave)
	}
	c.runWave(&wave)
	for i := range subs {
		sb := &subs[i]
		if sb.err == nil {
			sb.err = c.finishCommitLocked(t, sb.ps, sb.pending, &wave)
		}
	}
}

// stagePartLocked stages one partition's sub-batch: on the leader log,
// then out to the followers, noting every WAL log it dirtied in the
// wave. It returns the commit the wave must precede.
func (c *Cluster) stagePartLocked(t *topicState, sb *partBatch, w *flushWave) (*pendingCommit, error) {
	ps := sb.ps
	if err := c.ensureLeaderLocked(t, ps); err != nil {
		return nil, err
	}
	first, err := c.stageOnLeaderLocked(t, ps, sb.msgs, w)
	if err != nil {
		return nil, err
	}
	return c.shipLocked(t, ps, first+int64(len(sb.msgs)), w)
}

// pendingCommit is one partition's commit between its two halves: what
// shipLocked put on the replicas' logs, for finishCommitLocked to
// judge once the wave has flushed them.
type pendingCommit struct {
	leader    *Node
	lend      int64 // the commit covers [hw, lend) of the leader log
	followers []followerSync
	lastErr   error // why the most recent follower dropped out, for the quorum error
}

// followerSync is one follower that holds [.., lend) in its broker log.
type followerSync struct {
	n       *Node
	shipped bool // records moved in this pass (its log grew)
}

// syncToHWLocked is Repair's one-partition pass: bring every follower up
// to hw, flush, and ack the ones that hold it. It commits nothing: a
// suffix past hw is one no publisher was told succeeded, and the
// partition's next append cuts it.
func (c *Cluster) syncToHWLocked(t *topicState, ps *partitionState) error {
	var wave flushWave
	pc, err := c.shipLocked(t, ps, ps.hw, &wave)
	if err != nil {
		return err
	}
	c.runWave(&wave)
	return c.finishCommitLocked(t, ps, pc, &wave)
}

// shipLocked is the commit's first half: every follower is brought up
// to the leader's [.., lend) in its broker log and WAL buffer. Nothing it
// does is durable yet and nothing is acked.
func (c *Cluster) shipLocked(t *topicState, ps *partitionState, lend int64, w *flushWave) (*pendingCommit, error) {
	ld := c.node(ps.leader)
	if ld == nil || !ld.Alive() {
		return nil, &nodeDownError{id: ps.leader}
	}
	// A dead follower — or a follower set left short by a failover when
	// fewer than RF members were alive — would pin the partition below
	// quorum until the next repair pass; re-pick followers from live
	// members instead, so a node loss (or a restart that restores RF
	// live members) changes durability for exactly one commit — the
	// replacement is caught up inline below before it acks.
	refresh := len(ps.followers) < c.cfg.RF-1
	for _, r := range ps.followers {
		if n := c.node(r); n == nil || !n.Alive() {
			refresh = true
		}
	}
	if refresh {
		c.refreshFollowersLocked(ps)
	}
	pc := &pendingCommit{leader: ld, lend: lend, followers: make([]followerSync, 0, len(ps.followers))}
	for _, r := range ps.followers {
		f, err := c.syncFollowerLocked(t, ps, r, lend, w)
		if err != nil {
			pc.lastErr = err
			continue
		}
		pc.followers = append(pc.followers, f)
	}
	return pc, nil
}

// finishCommitLocked is the commit's second half, after the wave: a
// replica counts toward the quorum only if its own log's Sync returned.
// Only a quorum acks the replicas and moves hw; a miss leaves [hw, lend)
// untrusted on every replica that took it. A leader whose flush failed
// has crashed; the transient node-down error makes the publisher retry
// its Failed messages on whichever replica is promoted.
func (c *Cluster) finishCommitLocked(t *topicState, ps *partitionState, pc *pendingCommit, w *flushWave) error {
	name := partitionLog(t.name, ps.idx)
	if w.failed(pc.leader, name) {
		return &nodeDownError{id: pc.leader.ID}
	}
	lastErr := pc.lastErr
	acked := pc.followers[:0]
	for _, f := range pc.followers {
		if w.failed(f.n, name) {
			lastErr = &nodeDownError{id: f.n.ID}
			continue
		}
		acked = append(acked, f)
	}
	var qerr error
	if acks := 1 + len(acked); acks < c.cfg.Quorum {
		c.quorumFailures.Add(1)
		qerr = &quorumError{topic: t.name, part: ps.idx, acks: acks, quorum: c.cfg.Quorum, cause: lastErr}
		if pc.lend > ps.hw {
			return qerr
		}
		// A sync to hw commits nothing new: what the flushed followers
		// hold is committed already, so they are acked all the same.
	}
	ps.acked[pc.leader.ID] = pc.lend
	for _, f := range acked {
		ps.acked[f.n.ID] = pc.lend
	}
	advanced := pc.lend > ps.hw
	if advanced {
		ps.hw = pc.lend
		c.committed.Add(1)
		if ps.notify != nil {
			close(ps.notify) // the one place hw rises: parked readers wake on commit
			ps.notify = nil
		}
	}
	// WAL commit barriers, on the replicas whose knowledge changed this
	// pass: the leader when hw advanced, an acked follower when it also
	// shipped records (its log grew) or hw advanced. Quiescent repair
	// passes change nothing and write nothing. Barriers ride the next
	// wave; a barrier failure crashes the replica (walCrash) but never
	// undoes the quorum commit above.
	if advanced {
		_ = c.walCommitBarrier(pc.leader, name, ps.hw, ps.epoch)
	}
	for _, f := range acked {
		if (advanced || f.shipped) && f.n.Alive() {
			_ = c.walCommitBarrier(f.n, name, ps.hw, ps.epoch)
		}
	}
	return qerr
}

// syncFollowerLocked ships the leader log to one follower until the
// follower holds [.., lend). It first cuts the follower back to its
// acked prefix: what lies past it no quorum committed (a failed publish,
// a dead leader's suffix), and the leader's records replace it. Each hop
// crosses the faultable transport under the retry policy; ReplicateBatch
// preserves leader offsets and skips records the follower already holds,
// so re-delivery after a failed session cannot duplicate or reorder.
// Shipped chunks are staged on the follower's WAL and noted in the wave —
// the follower's ack is only ever granted after that log's flush.
func (c *Cluster) syncFollowerLocked(t *topicState, ps *partitionState, id string, lend int64, w *flushWave) (followerSync, error) {
	f := c.node(id)
	if f == nil || !f.Alive() {
		return followerSync{}, &nodeDownError{id: id}
	}
	ld := c.node(ps.leader)
	if ld == nil || !ld.Alive() {
		return followerSync{}, &nodeDownError{id: ps.leader}
	}
	fs := followerSync{n: f}
	gate := func() error { return c.transport.call(OpReplicate, ps.leader, id) }
	fend, err := f.Broker.EndOffset(t.name, ps.idx)
	if err != nil {
		return fs, err
	}
	if trusted := ps.acked[id]; fend > trusted {
		if err := resilience.Retry(context.Background(), c.cfg.Retry, gate); err != nil {
			return fs, err
		}
		if err := f.Broker.TruncateTo(t.name, ps.idx, trusted); err != nil {
			return fs, err
		}
		fend = trusted
	}
	for fend < lend {
		var recs []stream.Record
		err = resilience.Retry(context.Background(), c.cfg.Retry, func() error {
			if err := gate(); err != nil {
				return err
			}
			from := fend
			var ferr error
			recs, ferr = appendBelow(ps.page[:0], ld.Broker, t.name, ps.idx, from, int(min(lend-from, 1024)), lend)
			if errors.Is(ferr, stream.ErrOffsetTrimmed) {
				// The follower is so far behind that the leader trimmed
				// past it (leader-log retention bounds catch-up replay).
				// Fast-forward to the leader's oldest retained offset;
				// ReplicateBatch adopts the gap.
				if from, ferr = ld.Broker.OldestOffset(t.name, ps.idx); ferr != nil || from >= lend {
					return ferr
				}
				recs, ferr = appendBelow(ps.page[:0], ld.Broker, t.name, ps.idx, from, int(min(lend-from, 1024)), lend)
			}
			return ferr
		})
		if err != nil {
			return fs, err
		}
		if len(recs) == 0 {
			return fs, fmt.Errorf("cluster: %s/%d replication stalled at %d (leader end %d)",
				t.name, ps.idx, fend, lend)
		}
		err = f.Broker.ReplicateBatch(t.name, ps.idx, recs)
		if err == nil {
			err = c.walAppendRecords(f, partitionLog(t.name, ps.idx), recs, w)
		}
		stream.KeepPage(&ps.page, recs)
		if err != nil {
			return fs, err
		}
		fs.shipped = true
		c.replicated.Add(int64(len(recs)))
		if fend, err = f.Broker.EndOffset(t.name, ps.idx); err != nil {
			return fs, err
		}
	}
	return fs, nil
}

// part resolves one partition of a topic: the lookup every per-partition
// method starts with.
func (c *Cluster) part(topicName string, partition int) (*topicState, *partitionState, error) {
	t, err := c.topic(topicName)
	if err != nil {
		return nil, nil, err
	}
	if partition < 0 || partition >= len(t.parts) {
		return nil, nil, fmt.Errorf("%w: %s/%d", stream.ErrNoPartition, topicName, partition)
	}
	return t, t.parts[partition], nil
}

// AppendRecords appends committed records from the partition leader to
// dst, capped at the high watermark — staged (unacked) records are never
// visible, which is what makes failover exactly-once for readers.
func (c *Cluster) AppendRecords(dst []stream.Record, topicName string, partition int, offset int64, max int) ([]stream.Record, error) {
	t, ps, err := c.part(topicName, partition)
	if err != nil {
		return dst, err
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := c.ensureLeaderLocked(t, ps); err != nil {
		return dst, err
	}
	if offset > ps.hw {
		return dst, stream.ErrOffsetInFuture
	}
	if offset == ps.hw {
		return dst, nil
	}
	if err := c.transport.call(OpFetch, routerID, ps.leader); err != nil {
		return dst, err
	}
	// Ask only for the committed span: a replicated log's offsets are
	// contiguous, so at most hw-offset records lie below the watermark.
	if max <= 0 {
		max = 1024 // the broker's default page
	}
	max = int(min(int64(max), ps.hw-offset))
	return appendBelow(dst, c.node(ps.leader).Broker, t.name, ps.idx, offset, max, ps.hw)
}

// appendBelow appends up to max records of a replica's log at offset to
// dst, dropping any at or past end. The cut is a guard, not a code path:
// a log that adopted a retention gap has a hole, and a fetch that starts
// in one returns offsets past the count.
func appendBelow(dst []stream.Record, b *stream.Broker, topic string, part int, offset int64, max int, end int64) ([]stream.Record, error) {
	n0 := len(dst)
	dst, err := b.AppendRecords(dst, topic, part, offset, max)
	if err != nil {
		return dst[:n0], err
	}
	n := len(dst)
	for n > n0 && dst[n-1].Offset >= end {
		n--
	}
	clear(dst[n:]) // a reused page must not pin the cut records' arenas
	return dst[:n], nil
}

// EndOffset returns the partition's high watermark: the end of the
// committed, replicated prefix readers may consume.
func (c *Cluster) EndOffset(topicName string, partition int) (int64, error) {
	_, ps, err := c.part(topicName, partition)
	if err != nil {
		return 0, err
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.hw, nil
}

// readyNow is what Ready hands out when its condition already holds.
var readyNow = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// Ready returns a channel closed once the high watermark passes off: a
// reader wakes on a quorum commit, never on a staged suffix.
func (c *Cluster) Ready(topicName string, partition int, off int64) (<-chan struct{}, error) {
	_, ps, err := c.part(topicName, partition)
	if err != nil {
		return nil, err
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.hw > off {
		return readyNow, nil
	}
	if ps.notify == nil {
		ps.notify = make(chan struct{})
	}
	return ps.notify, nil
}

// OldestOffset returns the leader's oldest retained offset.
func (c *Cluster) OldestOffset(topicName string, partition int) (int64, error) {
	t, ps, err := c.part(topicName, partition)
	if err != nil {
		return 0, err
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := c.ensureLeaderLocked(t, ps); err != nil {
		return 0, err
	}
	ld := c.node(ps.leader)
	return ld.Broker.OldestOffset(t.name, ps.idx)
}
