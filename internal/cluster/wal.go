package cluster

import (
	"errors"
	"net/url"
	"strconv"
	"sync"
	"time"

	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
	"odakit/internal/wal"
)

// WAL log naming inside a node's directory: one log per topic partition
// replica, one per lake stripe replica. Topic names are path-escaped so
// arbitrary names cannot collide or escape the directory.
func partitionLog(topic string, idx int) string {
	return "t/" + url.PathEscape(topic) + "/" + strconv.Itoa(idx)
}

// stripeLogs holds the stripe log names, built once: the insert path asks
// for one per stripe per batch, WAL or not.
var stripeLogs = func() (names [tsdb.NumStripes]string) {
	for s := range names {
		names[s] = "lake/" + strconv.Itoa(s)
	}
	return names
}()

func stripeLog(s int) string { return stripeLogs[s] }

// errStopReplay aborts a WAL replay early without reporting failure —
// recovery trusts the contiguous prefix it has seen so far.
var errStopReplay = errors.New("cluster: stop wal replay")

// NodeWAL exposes a node's write-ahead log handle (nil when the cluster
// runs without Config.WALDir) so chaos suites can install fault hooks
// and crash the node at durability boundaries.
func (c *Cluster) NodeWAL(id string) *wal.NodeWAL {
	n := c.node(id)
	if n == nil {
		return nil
	}
	return n.WAL()
}

// walCrash fails a node whose WAL could not persist: an ack without
// durability would be a lie the next Restart exposes, so the node
// crashes instead. Callers hold ps.mu or stripeMu, so this must not run
// Kill's eager failover (it takes every partition lock) — leadership
// moves lazily through ensureLeaderLocked, exactly as if the process
// had died mid-write. The returned error is transient: the node can
// restart and recover.
func (c *Cluster) walCrash(n *Node) error {
	if n.alive.CompareAndSwap(true, false) {
		c.walCrashes.Add(1)
		c.epoch.Add(1)
	}
	return &nodeDownError{id: n.ID}
}

// flushWave is the durability half of a write. Staging (walAppendRecords,
// walAppendInsert) only appends to a replica's log and notes the log
// here; runWave then issues every noted log's Sync at once. Nodes are
// separate machines and logs separate files, so nothing in the
// fsync-before-ack contract orders those waits — only that each
// replica's ack comes after its own log's Sync, which the callers keep
// by asking failed before they count it. A memory-only cluster notes
// nothing, so its wave is empty and runs nothing.
type flushWave struct {
	logs []dirtyLog
}

// dirtyLog is one (node, log) a batch appended to and has not flushed.
type dirtyLog struct {
	n    *Node
	name string
	l    *wal.Log
	err  error // set by runWave: this log's Sync failed
}

// note records that the batch dirtied l; a log appended to twice in one
// batch (chunked follower sync, a re-staged suffix) is flushed once.
func (w *flushWave) note(n *Node, name string, l *wal.Log) {
	for i := range w.logs {
		if w.logs[i].l == l {
			return
		}
	}
	w.logs = append(w.logs, dirtyLog{n: n, name: name, l: l})
}

// failed reports whether the node's named log failed to flush in this
// wave — the one condition that drops a replica's ack. It is asked of
// the flush, not of the node: a replica whose Sync returned and whose
// node died afterwards holds the records durably and still counts.
func (w *flushWave) failed(n *Node, name string) bool {
	for i := range w.logs {
		if d := &w.logs[i]; d.err != nil && d.n == n && d.name == name {
			return true
		}
	}
	return false
}

// runWave flushes every noted log concurrently and returns once all
// have. Only the Sync calls leave the calling goroutine: every append,
// broker write and transport call of the batch already happened on it,
// in order. A failed Sync crashes its node, exactly as a failed append
// does.
func (c *Cluster) runWave(w *flushWave) {
	if len(w.logs) == 0 {
		return
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(len(w.logs))
	for i := range w.logs {
		go func(d *dirtyLog) {
			defer wg.Done()
			d.err = d.l.Sync()
		}(&w.logs[i])
	}
	wg.Wait()
	c.flushWaves.Add(1)
	c.flushWaveLogs.Add(int64(len(w.logs)))
	c.flushWaveSeconds.Load().Observe(time.Since(t0).Seconds())
	for i := range w.logs {
		if w.logs[i].err != nil {
			_ = c.walCrash(w.logs[i].n) // the error is the caller's to build, per replica
		}
	}
}

// walAppend stages entries on a node's named log and notes the log in
// the wave. Nothing is durable, and the node's ack must not count, until
// the wave has run and failed reports false for this log. A nil wave
// notes nothing: the entries ride the next wave that flushes this log.
func (c *Cluster) walAppend(n *Node, name string, w *flushWave, entries ...wal.Entry) error {
	nw := n.WAL()
	if nw == nil {
		return nil
	}
	l, err := nw.Log(name)
	if err == nil {
		err = l.Append(entries...)
	}
	if err != nil {
		return c.walCrash(n)
	}
	if w != nil {
		w.note(n, name, l)
	}
	return nil
}

// walAppendRecords stages a replicated chunk on a node's WAL.
func (c *Cluster) walAppendRecords(n *Node, name string, recs []stream.Record, w *flushWave) error {
	if n.WAL() == nil {
		return nil
	}
	entries := make([]wal.Entry, len(recs))
	for i, r := range recs {
		entries[i] = wal.Entry{
			Kind: wal.KindRecord, Offset: r.Offset, Ts: r.Ts.UnixNano(),
			Key: r.Key, Value: r.Value,
		}
	}
	return c.walAppend(n, name, w, entries...)
}

// walCommitBarrier records how far the quorum-committed prefix reached
// on one replica's log, and at which leadership epoch the replica
// learned it. Barriers are appended after the batch's wave and join no
// wave of their own — the next batch's wave on this log flushes them,
// and losing one only shrinks the prefix the next recovery trusts,
// never corrupts it.
func (c *Cluster) walCommitBarrier(n *Node, name string, hw, epoch int64) error {
	return c.walAppend(n, name, nil, wal.Entry{Kind: wal.KindCommit, HW: hw, Epoch: epoch})
}

// walAppendInsert stages one lake insert batch on a replica's stripe
// log under its cluster-wide sequence number.
func (c *Cluster) walAppendInsert(n *Node, s int, seq int64, obs []schema.Observation, w *flushWave) error {
	return c.walAppend(n, stripeLog(s), w, wal.Entry{Kind: wal.KindInsert, Seq: seq, Obs: obs})
}

// stageOnLeaderLocked appends msgs to the leader's partition log and
// stages them on the leader's WAL — the leader's half of the "persist
// before ack" rule (followers stage in syncFollowerLocked; the wave
// flushes both). ps.mu held.
func (c *Cluster) stageOnLeaderLocked(t *topicState, ps *partitionState, msgs []stream.Message, w *flushWave) (int64, error) {
	ld := c.node(ps.leader)
	if ld == nil || !ld.Alive() {
		return 0, &nodeDownError{id: ps.leader}
	}
	if err := c.transport.call(OpPublish, routerID, ps.leader); err != nil {
		return 0, err
	}
	// Past hw the leader log holds only what no quorum committed — a
	// failed publish, or a dead leader's suffix this replica took — and
	// no publisher was told it succeeded: cut it, so the batch lands
	// right after the committed prefix.
	if err := ld.Broker.TruncateTo(t.name, ps.idx, ps.hw); err != nil {
		return 0, err
	}
	first, err := ld.Broker.PublishBatchTo(t.name, ps.idx, msgs)
	if err != nil {
		return 0, err
	}
	if ld.WAL() != nil {
		// Read the appended records back so the WAL frames carry the
		// broker-assigned offsets and timestamps replay needs.
		recs, err := ld.Broker.AppendRecords(ps.page[:0], t.name, ps.idx, first, len(msgs))
		if err == nil {
			err = c.walAppendRecords(ld, partitionLog(t.name, ps.idx), recs, w)
		}
		stream.KeepPage(&ps.page, recs)
		if err != nil {
			return 0, err
		}
	}
	return first, nil
}

// recoverNode replays a freshly-reopened WAL into the node's empty
// broker and lake — the disk half of Restart. It reports whether any
// state was recovered (false means the WAL was empty or entirely
// fenced, and Repair re-replicates from peers wholesale).
func (c *Cluster) recoverNode(n *Node, w *wal.NodeWAL) bool {
	recovered := false
	for _, t := range c.topicList() {
		for _, ps := range t.parts {
			// A log the node never wrote has nothing to replay; opening it
			// would create it.
			if w.Has(partitionLog(t.name, ps.idx)) && c.recoverPartition(n, w, t, ps) {
				recovered = true
			}
		}
	}
	for s := 0; s < tsdb.NumStripes; s++ {
		if c.recoverStripe(n, w, s) {
			recovered = true
		}
	}
	return recovered
}

// recoverPartition rebuilds one partition replica from the node's WAL:
// replay every frame (later appends at an offset win, mirroring the cut
// of an uncommitted suffix and the appends that replaced it on this
// replica), trust records only up to the last
// commit barrier, fence below any truncation performed at an epoch the
// barrier never saw, and require the surviving prefix to be contiguous
// from offset zero. The rebuilt prefix enters the node's broker with
// its original offsets; Repair then ships only the suffix past it from
// the current leader. ps.mu is taken here, so recovery serializes with
// in-flight publishes to the same partition.
func (c *Cluster) recoverPartition(n *Node, w *wal.NodeWAL, t *topicState, ps *partitionState) bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	l, err := w.Log(partitionLog(t.name, ps.idx))
	if err != nil {
		return false
	}
	byOff := make(map[int64]wal.Entry)
	walHW, walEpoch := int64(0), int64(-1)
	if _, err := l.Replay(func(e wal.Entry) error {
		switch e.Kind {
		case wal.KindRecord:
			byOff[e.Offset] = e
		case wal.KindCommit:
			// The LAST barrier in file order wins: it is the replica's
			// latest knowledge. A chronologically newer barrier may carry a
			// LOWER hw (the cluster truncated beyond-quorum loss); trusting
			// an older, higher one would resurrect superseded records.
			walHW, walEpoch = e.HW, e.Epoch
		}
		return nil
	}); err != nil {
		return false
	}
	// Fence: any truncation performed at an epoch after the barrier's
	// means offsets ≥ its cut may have been rewritten while this replica
	// was down. Only the prefix below every such cut is trustworthy.
	valid := walHW
	for _, tr := range ps.truncs {
		if tr.epoch > walEpoch && tr.off < valid {
			valid = tr.off
		}
	}
	if valid <= 0 {
		return false
	}
	recs := make([]stream.Record, 0, len(byOff))
	for off := int64(0); off < valid; off++ {
		e, ok := byOff[off]
		if !ok {
			valid = off // gap: trust only the contiguous prefix below it
			break
		}
		recs = append(recs, stream.Record{
			Offset: off, Ts: time.Unix(0, e.Ts).UTC(), Key: e.Key, Value: e.Value,
		})
	}
	if len(recs) == 0 {
		return false
	}
	for i := 0; i < len(recs); i += 512 {
		if err := n.Broker.ReplicateBatch(t.name, ps.idx, recs[i:min(i+512, len(recs))]); err != nil {
			return false
		}
	}
	ps.acked[n.ID] = valid
	c.walRecoveredRecords.Add(int64(len(recs)))
	// Re-barrier at the recovered position under the current epoch, so
	// the next restart replays to here without re-deriving the fence.
	if err := l.Append(wal.Entry{Kind: wal.KindCommit, HW: valid, Epoch: ps.epoch}); err == nil {
		_ = l.Sync()
	}
	return true
}

// recoverStripe rebuilds one lake stripe replica by re-inserting the
// WAL's contiguous insert-batch history (sequences 1, 2, …; after a
// counted loss, from past it) in order — per-stripe insertion order is
// what makes replica scans byte-identical, and replay preserves it. A
// replica that recovers the stripe's full history re-enters the serving
// set immediately; one that recovers a prefix waits for
// catchupStripeFromWAL (or a wholesale resync) in the next Repair pass.
func (c *Cluster) recoverStripe(n *Node, w *wal.NodeWAL, s int) bool {
	c.stripeMu[s].Lock()
	defer c.stripeMu[s].Unlock()
	base := c.lostUpTo[s] // history up to the stripe's last counted loss is gone
	applied, rows := base, int64(0)
	if w.Has(stripeLog(s)) { // a stripe never written here replays nothing
		l, err := w.Log(stripeLog(s))
		if err != nil {
			return false
		}
		if _, err := l.Replay(func(e wal.Entry) error {
			if e.Kind != wal.KindInsert || e.Seq <= base {
				return nil
			}
			if e.Seq != applied+1 {
				// A history that does not start at base+1 (the log was reset
				// by a wholesale resync) or has a gap cannot rebuild the stripe.
				return errStopReplay
			}
			if err := n.Lake().InsertBatch(e.Obs); err != nil {
				return errStopReplay
			}
			applied = e.Seq
			rows += int64(len(e.Obs))
			return nil
		}); err != nil && !errors.Is(err, errStopReplay) {
			return false
		}
	}
	n.stripeSeq[s].Store(applied)
	c.walRecoveredRows.Add(rows)
	if applied > 0 && applied == c.stripeSeqs[s].Load() {
		c.markStripeSynced(s, n.ID)
	}
	return applied > base
}

// catchupStripeFromWAL brings tgt's stripe s from its applied sequence
// up to the cluster's by replaying only the missing suffix out of a
// live peer's WAL — the cheap path Repair tries before a wholesale
// resync, and the one that works across a partially-partitioned
// transport (one reachable peer suffices). Caller holds stripeMu[s], so
// the peer's log is stable. Returns whether tgt ended in sync; false
// falls back to resyncStripe.
func (c *Cluster) catchupStripeFromWAL(s int, src, tgt string) bool {
	target := c.stripeSeqs[s].Load()
	tn := c.node(tgt)
	if tn == nil || !tn.Alive() {
		return false
	}
	have := tn.stripeSeq[s].Load()
	if have < 0 || have > target {
		return false // ambiguous replica state: only a wholesale copy fixes it
	}
	if have == target {
		c.markStripeSynced(s, tgt)
		return true
	}
	sn := c.node(src)
	if sn == nil || !sn.Alive() || sn.WAL() == nil {
		return false
	}
	sl, err := sn.WAL().Log(stripeLog(s))
	if err != nil {
		return false
	}
	var ins []wal.Entry
	if _, err := sl.Replay(func(e wal.Entry) error {
		if e.Kind == wal.KindInsert {
			ins = append(ins, e)
		}
		return nil
	}); err != nil {
		return false
	}
	// The peer's usable history is the contiguous run of sequences
	// ending the log; it must end at the cluster sequence and reach back
	// to tgt's position, or a suffix replay would leave a gap.
	if len(ins) == 0 || ins[len(ins)-1].Seq != target {
		return false
	}
	start := len(ins) - 1
	for start > 0 && ins[start-1].Seq == ins[start].Seq-1 {
		start--
	}
	if ins[start].Seq > have+1 {
		return false
	}
	// Stage the whole missing suffix, then flush it in one wave. The
	// target's sequence moves only after the wave, and only as far as was
	// staged: a crash mid-suffix leaves it where its log left it, and a
	// suffix cut short by the transport still records what the lake now
	// holds, so the next pass resumes there instead of re-applying it.
	var wave flushWave
	last := have
	for _, e := range ins[start:] {
		if e.Seq <= have {
			continue
		}
		if err := c.transport.call(OpResync, src, tgt); err != nil {
			break
		}
		if err := tn.Lake().InsertBatch(e.Obs); err != nil {
			last = -1
			break
		}
		if err := c.walAppendInsert(tn, s, e.Seq, e.Obs, &wave); err != nil {
			return false
		}
		last = e.Seq
	}
	c.runWave(&wave)
	if wave.failed(tn, stripeLog(s)) {
		return false
	}
	tn.stripeSeq[s].Store(last)
	if last != target {
		return false
	}
	c.markStripeSynced(s, tgt)
	c.lakeCatchups.Add(1)
	return true
}
