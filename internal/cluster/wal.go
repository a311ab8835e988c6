package cluster

import (
	"net/url"
	"strconv"
	"sync"
	"time"

	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
	"odakit/internal/wal"
)

// WAL stream naming inside a node's log: one stream per topic partition
// replica, one per lake stripe replica. Topic names are path-escaped so
// arbitrary names cannot collide.
func partitionLog(topic string, idx int) string {
	return "t/" + url.PathEscape(topic) + "/" + strconv.Itoa(idx)
}

// stripeLogs holds the stripe stream names, built once: the insert path
// asks for one per stripe per batch, WAL or not.
var stripeLogs = func() (names [tsdb.NumStripes]string) {
	for s := range names {
		names[s] = "lake/" + strconv.Itoa(s)
	}
	return names
}()

func stripeLog(s int) string { return stripeLogs[s] }

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
// walAppendInsert) only appends to a replica's stream and notes the
// replica's node here; runWave then issues every noted node log's Sync
// at once. Nodes are separate machines, so nothing in the
// fsync-before-ack contract orders those waits — only that each
// replica's ack comes after its own node's Sync, which the callers keep
// by asking failed before they count it. Every stream of a node lives in
// its one log, so a wave flushes at most one log per node. A
// memory-only cluster notes nothing, so its wave is empty and runs
// nothing.
type flushWave struct {
	logs []dirtyLog
}

// dirtyLog is one node log a batch appended to and has not flushed.
type dirtyLog struct {
	n   *Node
	w   *wal.NodeWAL
	err error // set by runWave: this log's Sync failed
}

// note records that the batch dirtied a node's log; a log appended to
// many times in one batch (several partitions and stripes, a chunked
// follower sync) is flushed once.
func (w *flushWave) note(n *Node, nw *wal.NodeWAL) {
	for i := range w.logs {
		if w.logs[i].w == nw {
			return
		}
	}
	w.logs = append(w.logs, dirtyLog{n: n, w: nw})
}

// failed reports whether the node's log failed to flush in this wave —
// the one condition that drops a replica's ack. It is asked of the
// flush, not of the node: a replica whose Sync returned and whose node
// died afterwards holds the records durably and still counts.
func (w *flushWave) failed(n *Node) bool {
	for i := range w.logs {
		if d := &w.logs[i]; d.err != nil && d.n == n {
			return true
		}
	}
	return false
}

// runWave flushes every noted log concurrently and returns once all
// have. The calling goroutine syncs the first log itself and only the
// other Sync calls leave it: every append, broker write and transport
// call of the batch already happened on it, in order. A failed Sync
// crashes its node, exactly as a failed append does.
func (c *Cluster) runWave(w *flushWave) {
	if len(w.logs) == 0 {
		return
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(len(w.logs) - 1)
	for i := range w.logs[1:] {
		go func(d *dirtyLog) {
			defer wg.Done()
			d.err = d.w.Sync()
		}(&w.logs[i+1])
	}
	w.logs[0].err = w.logs[0].w.Sync()
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

// walAppend stages entries on a node's named stream and notes the
// node's log in the wave. Nothing is durable, and the node's ack must
// not count, until the wave has run and failed reports false for this
// node. A nil wave notes nothing: the entries ride the next Sync of the
// node's log, whichever batch makes it.
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
		w.note(n, nw)
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
// on one replica's stream, and at which leadership epoch the replica
// learned it. Barriers are appended after the batch's wave and join no
// wave of their own — the next wave that flushes this node's log, a
// publish or an insert, makes them durable, and losing one only shrinks
// the prefix the next recovery trusts, never corrupts it.
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
// broker and lake — the disk half of Restart. The node log is read once,
// front to back, and each entry goes to its stream's recovery: a
// partition collects its records and barriers (recoverPartition judges
// them after the pass), a stripe re-inserts its batch history as it
// comes (stripeRecovery.add). The stripe locks are held, ascending as
// InsertBatch takes them, for the pass, so a stripe's history is judged
// against the loss count it has now. It reports whether any state was
// recovered (false means the WAL was empty, unreadable or entirely
// fenced, and Repair re-replicates from peers wholesale).
func (c *Cluster) recoverNode(n *Node, w *wal.NodeWAL) bool {
	var order []*partRecovery // topic, then partition order: recovery appends re-barriers in it
	parts := make(map[string]*partRecovery)
	for _, t := range c.topicList() {
		for _, ps := range t.parts {
			p := &partRecovery{name: partitionLog(t.name, ps.idx), t: t, ps: ps, byOff: make(map[int64]wal.Entry), epoch: -1}
			order = append(order, p)
			parts[p.name] = p
		}
	}
	var stripes [tsdb.NumStripes]stripeRecovery
	byName := make(map[string]*stripeRecovery, tsdb.NumStripes)
	for s := range stripes {
		c.stripeMu[s].Lock()
		stripes[s] = stripeRecovery{base: c.lostUpTo[s], applied: c.lostUpTo[s]}
		byName[stripeLog(s)] = &stripes[s]
	}
	_, err := w.Replay(func(stream string, e wal.Entry) error {
		if p := parts[stream]; p != nil {
			p.add(e)
		} else if r := byName[stream]; r != nil {
			r.add(n, e)
		}
		return nil
	})
	if err != nil {
		// A log that cannot be read back recovers nothing: what it
		// re-inserted so far goes, and peers rebuild the node.
		n.resetLake(c.cfg.LakeOptions)
		order = nil
	}
	recovered := false
	for s := range stripes {
		r := &stripes[s]
		if err != nil {
			r.applied, r.rows = r.base, 0
		}
		n.stripeSeq[s].Store(r.applied)
		c.walRecoveredRows.Add(r.rows)
		if r.applied > 0 && r.applied == c.stripeSeqs[s].Load() {
			c.markStripeSynced(s, n.ID)
		}
		recovered = recovered || r.applied > r.base
		c.stripeMu[s].Unlock()
	}
	barriers := false
	for _, p := range order {
		if p.seen && c.recoverPartition(n, w, p) {
			recovered, barriers = true, true
		}
	}
	if barriers {
		// One flush for every re-barrier. A lost one only makes the next
		// restart derive the fence again from the older barriers.
		_ = w.Sync()
	}
	return recovered
}

// partRecovery is one partition's share of the node log's replay: every
// record by offset (a later append at an offset wins, mirroring the cut
// of an uncommitted suffix and the appends that replaced it on this
// replica) and the last commit barrier in log order.
type partRecovery struct {
	name      string
	t         *topicState
	ps        *partitionState
	seen      bool
	byOff     map[int64]wal.Entry
	hw, epoch int64
}

func (p *partRecovery) add(e wal.Entry) {
	p.seen = true
	switch e.Kind {
	case wal.KindRecord:
		p.byOff[e.Offset] = e
	case wal.KindCommit:
		// The LAST barrier in log order wins: it is the replica's latest
		// knowledge. A chronologically newer barrier may carry a LOWER hw
		// (the cluster truncated beyond-quorum loss); trusting an older,
		// higher one would resurrect superseded records.
		p.hw, p.epoch = e.HW, e.Epoch
	}
}

// recoverPartition rebuilds one partition replica from what the replay
// collected: trust records only up to the last commit barrier, fence
// below any truncation performed at an epoch the barrier never saw, and
// require the surviving prefix to be contiguous from offset zero. The
// rebuilt prefix enters the node's broker with its original offsets;
// Repair then ships only the suffix past it from the current leader.
// ps.mu is taken here, so recovery serializes with in-flight publishes
// to the same partition. The re-barrier it appends rides recoverNode's
// one Sync.
func (c *Cluster) recoverPartition(n *Node, w *wal.NodeWAL, p *partRecovery) bool {
	t, ps := p.t, p.ps
	ps.mu.Lock()
	defer ps.mu.Unlock()
	// Fence: any truncation performed at an epoch after the barrier's
	// means offsets ≥ its cut may have been rewritten while this replica
	// was down. Only the prefix below every such cut is trustworthy.
	valid := p.hw
	for _, tr := range ps.truncs {
		if tr.epoch > p.epoch && tr.off < valid {
			valid = tr.off
		}
	}
	if valid <= 0 {
		return false
	}
	recs := make([]stream.Record, 0, min(valid, int64(len(p.byOff))))
	for off := int64(0); off < valid; off++ {
		e, ok := p.byOff[off]
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
	if l, err := w.Log(p.name); err == nil {
		_ = l.Append(wal.Entry{Kind: wal.KindCommit, HW: valid, Epoch: ps.epoch})
	}
	return true
}

// stripeRecovery re-inserts one lake stripe replica's contiguous
// insert-batch history (sequences 1, 2, …; after a counted loss, from
// past it) in order as the replay reaches it — per-stripe insertion
// order is what makes replica scans byte-identical, and replay
// preserves it. A replica that recovers the stripe's full history
// re-enters the serving set immediately; one that recovers a prefix
// waits for catchupStripeFromWAL (or a wholesale resync) in the next
// Repair pass.
type stripeRecovery struct {
	base, applied, rows int64
	stopped             bool
}

func (r *stripeRecovery) add(n *Node, e wal.Entry) {
	if r.stopped || e.Kind != wal.KindInsert || e.Seq <= r.base {
		return // history up to the stripe's last counted loss is gone
	}
	// A history that does not start at base+1 (the stream was reset by a
	// wholesale resync) or has a gap cannot rebuild the stripe past it.
	if e.Seq != r.applied+1 || n.Lake().InsertBatch(e.Obs) != nil {
		r.stopped = true
		return
	}
	r.applied = e.Seq
	r.rows += int64(len(e.Obs))
}

// catchupStripeFromWAL brings tgt's stripe s from its applied sequence
// up to the cluster's by replaying only the missing suffix out of a
// live peer's node log (its stripe stream alone) — the cheap path Repair tries before a wholesale
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
	if wave.failed(tn) {
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
