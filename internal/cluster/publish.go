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

// PublishBatch publishes a batch through the cluster: each message
// routes to a partition (key hash, cluster-level round-robin when
// keyless — identical placement to a single broker for keyed messages),
// the partition leader appends it, and followers replicate it before
// the batch commits and becomes readable. With WALs, every touched
// replica log is flushed in one wave (see publishParts) and a replica
// counts toward its partition's quorum only after its own log's Sync.
//
// Retry semantics: on error, retry the same batch. Keyed messages are
// exactly-once — each partition remembers its staged (appended but
// uncommitted) batch by fingerprint and resumes the commit instead of
// re-appending, even across a leader failover that lost part of the
// staged suffix. Keyless messages re-route through the round-robin
// cursor on retry and may duplicate; use keys when replay matters.
//
// The guarantee assumes one in-flight publisher per partition: a
// partition remembers ONE staged batch. If a batch fails on some
// partitions, commits on others, and a second publisher stages on one of
// the committed partitions before the retry arrives, that partition has
// forgotten the first batch and the retry appends its sub-batch again.
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
			subs = append(subs, partBatch{ps: ps, msgs: sub, fp: fingerprintMsgs(sub)})
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

// partBatch is one partition's share of a publish: the sub-batch and its
// fingerprint going in, its error coming out.
type partBatch struct {
	ps   *partitionState
	msgs []stream.Message
	fp   uint64

	pending *pendingCommit // staged, waiting for the wave; nil when nothing is
	err     error
}

// publishParts runs the publish protocol over the touched partitions of
// one topic (subs ascending by partition index, which is the lock
// order). Three steps under all of their locks:
//
//  1. stage — per partition, on this goroutine, in index order: append on
//     the leader (broker log + WAL), ship [hw, leaderEnd) to followers
//     (broker log + WAL). Nothing is flushed, nothing acked.
//  2. one flush wave — every WAL log step 1 dirtied, Sync'd concurrently.
//  3. commit — per partition: count the replicas whose log flushed,
//     advance hw at Quorum, append commit barriers.
//
// The partition lock serializes publishes, so at most one staged batch
// exists per partition at a time — that is what lets a fingerprint match
// identify "the same batch, retried". Paths that take one partition lock
// at a time (fetch, Kill, Restart's replay, Repair) cannot deadlock
// against the ascending multi-lock here.
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
	ok := true
	for i := range subs {
		sb := &subs[i]
		if sb.err == nil && sb.pending != nil {
			sb.err = c.finishCommitLocked(t, sb.ps, sb.pending, &wave)
		}
		ok = ok && sb.err == nil
	}
	if !ok {
		return
	}
	// The whole batch committed and the caller is about to observe
	// success, so no retry of it can arrive: drop each partition's dedup
	// state. Until this point it must survive — a partial failure retries
	// the full batch, and the partitions that already committed dedupe
	// their sub-batches by fingerprint. Dropping it now is what lets a
	// later batch with identical content (heartbeats, constant-valued
	// events) append as a new publish instead of being silently deduped.
	for i := range subs {
		subs[i].ps.inflight = nil
	}
}

// stagePartLocked stages one partition's sub-batch: on the leader log,
// then out to the followers, noting every WAL log it dirtied in the
// wave. It returns the commit the wave must precede — nil when a retry
// finds the batch already committed.
func (c *Cluster) stagePartLocked(t *topicState, sb *partBatch, w *flushWave) (*pendingCommit, error) {
	ps := sb.ps
	if err := c.ensureLeaderLocked(t, ps); err != nil {
		return nil, err
	}
	if st := ps.inflight; st != nil && st.fp == sb.fp && st.n == len(sb.msgs) {
		// The same batch, retried: it is already on the leader log (or
		// partially, after a failover). Resume the commit, never
		// re-append the whole batch.
		if st.committed {
			return nil, nil // a Repair pass finished the commit for us
		}
		return c.stageCommitLocked(t, ps, sb.msgs, w)
	}
	if st := ps.inflight; st != nil && !st.committed {
		// A different batch while one is staged: its publisher gave up
		// retrying. Resolve the old region first (commit whatever the
		// leader log holds, in a wave of its own) so a single staged
		// region remains.
		if err := c.commitSuffixLocked(t, ps); err != nil {
			return nil, err
		}
	}
	ps.inflight = nil
	first, err := c.stageOnLeaderLocked(t, ps, sb.msgs, w)
	if err != nil {
		return nil, err
	}
	ps.inflight = &staged{fp: sb.fp, n: len(sb.msgs), first: first}
	return c.stageCommitLocked(t, ps, sb.msgs, w)
}

// stageCommitLocked brings the staged batch to the point where only the
// flush is missing: it re-appends whatever suffix a failover lost, ships
// the region to the followers, and returns the pending commit. The new
// leader's end offset can only be inside [hw, first+n]: below first+n
// when the promoted follower had not replicated the whole staged batch,
// never above because the partition lock admits no other publish while a
// batch is staged.
func (c *Cluster) stageCommitLocked(t *topicState, ps *partitionState, msgs []stream.Message, w *flushWave) (*pendingCommit, error) {
	if err := c.ensureLeaderLocked(t, ps); err != nil {
		return nil, err
	}
	st := ps.inflight
	if st == nil {
		// A failover between retries dropped the staged region below hw:
		// the whole batch is gone from every surviving log. Re-stage it.
		first, err := c.stageOnLeaderLocked(t, ps, msgs, w)
		if err != nil {
			return nil, err
		}
		st = &staged{fp: fingerprintMsgs(msgs), n: len(msgs), first: first}
		ps.inflight = st
	}
	ld := c.node(ps.leader)
	if ld == nil || !ld.Alive() {
		return nil, &nodeDownError{id: ps.leader}
	}
	end, err := ld.Broker.EndOffset(t.name, ps.idx)
	if err != nil {
		return nil, err
	}
	want := st.first + int64(st.n)
	if end > want {
		return nil, fmt.Errorf("cluster: %s/%d leader end %d beyond staged region end %d",
			t.name, ps.idx, end, want)
	}
	if end < want {
		// Failover lost a suffix of the staged batch; re-append exactly
		// the missing tail so the region is contiguous again.
		missing := msgs
		if end > st.first {
			missing = msgs[end-st.first:]
		}
		first2, err := c.stageOnLeaderLocked(t, ps, missing, w)
		if err != nil {
			return nil, err
		}
		if first2 != end {
			return nil, fmt.Errorf("cluster: %s/%d staged re-append landed at %d, want %d",
				t.name, ps.idx, first2, end)
		}
		if end <= st.first {
			st.first = first2 // whole batch was lost; region restarts here
		}
	}
	pc, err := c.shipSuffixLocked(t, ps, w)
	if err != nil {
		return nil, err
	}
	return pc, nil
}

// pendingCommit is one partition's commit between its two halves: what
// shipSuffixLocked put on the replicas' logs, for finishCommitLocked to
// judge once the wave has flushed them.
type pendingCommit struct {
	leader    *Node
	lend      int64 // leader log end: the commit covers [hw, lend)
	followers []followerSync
	lastErr   error // why the most recent follower dropped out, for the quorum error
}

// followerSync is one follower that holds [.., lend) in its broker log.
type followerSync struct {
	n       *Node
	end     int64
	shipped bool // records moved in this pass (its log grew)
}

// commitSuffixLocked is the one-partition commit: replicate the leader
// log's uncommitted suffix [hw, leaderEnd) to the followers, flush, and
// advance hw once Quorum replicas (leader included) hold it durably —
// the "followers ack before publish commits" half of the protocol. On a
// quorum miss the suffix stays staged and invisible; the error is
// transient so publishers retry.
func (c *Cluster) commitSuffixLocked(t *topicState, ps *partitionState) error {
	var wave flushWave
	pc, err := c.shipSuffixLocked(t, ps, &wave)
	if err != nil {
		return err
	}
	c.runWave(&wave)
	return c.finishCommitLocked(t, ps, pc, &wave)
}

// shipSuffixLocked is the commit's first half: every follower is brought
// up to the leader's end in its broker log and WAL buffer. Nothing it
// does is durable yet and nothing is acked.
func (c *Cluster) shipSuffixLocked(t *topicState, ps *partitionState, w *flushWave) (*pendingCommit, error) {
	ld := c.node(ps.leader)
	if ld == nil || !ld.Alive() {
		return nil, &nodeDownError{id: ps.leader}
	}
	lend, err := ld.Broker.EndOffset(t.name, ps.idx)
	if err != nil {
		return nil, err
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
// A leader whose flush failed has crashed with the batch still staged;
// the transient node-down error makes the publisher retry, and the retry
// resumes the staged batch on whichever replica is promoted.
func (c *Cluster) finishCommitLocked(t *topicState, ps *partitionState, pc *pendingCommit, w *flushWave) error {
	name := partitionLog(t.name, ps.idx)
	if w.failed(pc.leader, name) {
		return &nodeDownError{id: pc.leader.ID}
	}
	ps.acked[ps.leader] = pc.lend
	acks := 1
	lastErr := pc.lastErr
	acked := pc.followers[:0]
	for _, f := range pc.followers {
		if w.failed(f.n, name) {
			lastErr = &nodeDownError{id: f.n.ID}
			continue
		}
		ps.acked[f.n.ID] = f.end
		acked = append(acked, f)
		acks++
	}
	if acks < c.cfg.Quorum {
		c.quorumFailures.Add(1)
		return &quorumError{topic: t.name, part: ps.idx, acks: acks, quorum: c.cfg.Quorum, cause: lastErr}
	}
	advanced := pc.lend > ps.hw
	if advanced {
		ps.hw = pc.lend
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
	if ps.inflight != nil {
		// Keep the fingerprint: a publisher retrying this batch after a
		// transient error must still dedupe against it.
		ps.inflight.committed = true
		c.committed.Add(1)
	}
	return nil
}

// syncFollowerLocked ships the leader log to one follower until the
// follower holds [.., lend). Each hop crosses the faultable transport
// under the retry policy; ReplicateBatch preserves leader offsets and
// skips records the follower already holds, so re-delivery after a
// failed session cannot duplicate or reorder. Shipped chunks are staged
// on the follower's WAL and noted in the wave — the follower's ack is
// only ever granted after that log's flush.
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
	for {
		fend, err := f.Broker.EndOffset(t.name, ps.idx)
		if err != nil {
			return fs, err
		}
		if fend >= lend {
			fs.end = fend
			return fs, nil
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
			return fs, err
		}
		if len(recs) == 0 {
			return fs, fmt.Errorf("cluster: %s/%d replication stalled at %d (leader end %d)",
				t.name, ps.idx, fend, lend)
		}
		if err := f.Broker.ReplicateBatch(t.name, ps.idx, recs); err != nil {
			return fs, err
		}
		if err := c.walAppendRecords(f, partitionLog(t.name, ps.idx), recs, w); err != nil {
			return fs, err
		}
		fs.shipped = true
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
	// Ask only for the committed span: a replicated log's offsets are
	// contiguous, so at most hw-offset records lie below the watermark.
	if max <= 0 {
		max = 1024 // the broker's default page
	}
	if committed := ps.hw - offset; int64(max) > committed {
		max = int(committed)
	}
	ld := c.node(ps.leader)
	recs, err := ld.Broker.FetchNoWait(t.name, ps.idx, offset, max)
	if err != nil {
		return nil, err
	}
	// Guard, not a code path: a log that adopted a retention gap has a
	// hole, and a fetch that starts in one returns offsets past the count.
	for n := len(recs); n > 0 && recs[n-1].Offset >= ps.hw; n-- {
		recs = recs[:n-1]
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
