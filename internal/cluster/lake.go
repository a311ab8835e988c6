package cluster

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"odakit/internal/resilience"
	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
)

// InsertBatch replicates a batch of observations into the LAKE: each
// observation's stripe (tsdb.StripeFor, the engine's own placement) is
// applied to every in-sync replica of that stripe. A per-stripe cluster
// mutex serializes writers, so every replica ingests a stripe's
// observations in one global order — which is why any replica can answer
// a stripe scan byte-identically.
//
// The touched stripes are locked in ascending order and written the way
// publishParts writes partitions: apply + WAL append on every replica of
// every stripe on this goroutine, one flush wave over every stripe log
// that dirtied, then the sequence numbers advance. A replica counts
// toward a stripe's ack only after its own log's Sync.
//
// A replica that fails an insert after retries is marked out-of-sync and
// dropped from the stripe's serving set (Repair resyncs it from a
// healthy peer); the batch succeeds as long as one replica per touched
// stripe applied it. Do not retry a batch whose error names a down
// stripe — the surviving stripes already applied it.
func (c *Cluster) InsertBatch(obs []schema.Observation) error {
	if len(obs) == 0 {
		return nil
	}
	// Pooled scratch (or obs itself when one stripe takes the whole
	// batch): the lakes roll observations up and the WAL encodes them
	// before either returns, so nothing holds a sub-batch past this call.
	byStripe := stripeRegroups.Get().(*stream.Regroup[schema.Observation])
	defer func() {
		byStripe.Clear()
		stripeRegroups.Put(byStripe)
	}()
	byStripe.Sort(obs, tsdb.NumStripes, func(o *schema.Observation) int {
		return tsdb.StripeFor(o.Component, o.Metric)
	})
	var buf [tsdb.NumStripes]int
	touched := buf[:0] // ascending: the stripe lock order
	for s := 0; s < tsdb.NumStripes; s++ {
		if len(byStripe.Group(s)) > 0 {
			touched = append(touched, s)
		}
	}
	for _, s := range touched {
		c.stripeMu[s].Lock()
	}
	defer func() {
		for _, s := range touched {
			c.stripeMu[s].Unlock()
		}
	}()
	var wave flushWave
	var staged [tsdb.NumStripes]stripeInsert
	for _, s := range touched {
		staged[s] = c.stageStripeLocked(s, byStripe.Group(s), &wave)
	}
	c.runWave(&wave)
	var firstErr error
	for _, s := range touched {
		if err := c.finishStripeLocked(s, staged[s], &wave); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

var stripeRegroups = sync.Pool{New: func() any { return new(stream.Regroup[schema.Observation]) }}

// stripeInsert is one stripe's insert between staging and the wave: the
// sequence number it will commit under and the replicas that applied it.
type stripeInsert struct {
	seq     int64
	applied []*Node
	err     error
}

// stageStripeLocked applies one stripe's sub-batch to every in-sync
// replica under the next cluster-wide stripe sequence number and stages
// it on each replica's WAL. stripeMu[s] held.
func (c *Cluster) stageStripeLocked(s int, sub []schema.Observation, w *flushWave) stripeInsert {
	var buf [8]string
	targets := c.stripeServers(s, true, buf[:0])
	if len(targets) == 0 {
		return stripeInsert{err: fmt.Errorf("%w: %d", ErrStripeDown, s)}
	}
	si := stripeInsert{seq: c.stripeSeqs[s].Load() + 1, applied: make([]*Node, 0, len(targets))}
	var cause error // a replica's failure, named when none applied the batch
	for _, id := range targets {
		n := c.node(id)
		if n == nil || !n.Alive() {
			c.markStripeUnsynced(s, id)
			continue
		}
		err := resilience.Retry(context.Background(), c.cfg.Retry, func() error {
			if err := c.transport.call(OpInsert, routerID, id); err != nil {
				return err
			}
			// tsdb's fault hook runs before any stripe mutates, so a
			// failed attempt applied nothing and the retry is safe.
			return n.Lake().InsertBatch(sub)
		})
		if err != nil {
			// The replica may or may not hold this batch now — either
			// way it can no longer be trusted to match its peers, and
			// its position in the stripe history is unknown (-1), so a
			// WAL suffix catch-up can never resume from it.
			n.stripeSeq[s].Store(-1)
			c.markStripeUnsynced(s, id)
			cause = err
			continue
		}
		if err := c.walAppendInsert(n, s, si.seq, sub, w); err != nil {
			// The WAL failure crashed the node; its lake held the batch
			// but nothing durable says so, which is exactly the state a
			// crash after apply would leave — drop it from serving.
			c.markStripeUnsynced(s, id)
			cause = err
			continue
		}
		si.applied = append(si.applied, n)
	}
	if len(si.applied) == 0 && cause != nil {
		// %v, not %w: a down stripe is not retried, whatever the cause.
		si.err = fmt.Errorf("%w: %d (all replicas failed the insert: %v)", ErrStripeDown, s, cause)
	}
	return si
}

// finishStripeLocked counts one stripe's acks after the wave: a replica
// whose stripe log flushed moves to the new sequence; one whose flush
// failed crashed holding a batch nothing durable describes, and leaves
// the serving set. The cluster sequence advances only once some replica
// holds the batch durably, so a WAL replay can always tell a
// fully-caught-up replica from one missing a suffix. stripeMu[s] held.
func (c *Cluster) finishStripeLocked(s int, si stripeInsert, w *flushWave) error {
	if si.err != nil {
		return si.err
	}
	acks := 0
	for _, n := range si.applied {
		if w.failed(n, stripeLog(s)) {
			c.markStripeUnsynced(s, n.ID)
			continue
		}
		n.stripeSeq[s].Store(si.seq)
		acks++
	}
	if acks == 0 {
		return fmt.Errorf("%w: %d (all replicas failed the insert)", ErrStripeDown, s)
	}
	c.stripeSeqs[s].Store(si.seq)
	return nil
}

// stripeServers appends stripe s's in-sync replica set, sorted, to buf
// (a caller's stack buffer) and returns it; aliveOnly filters to live
// nodes.
func (c *Cluster) stripeServers(s int, aliveOnly bool, buf []string) []string {
	c.lmu.Lock()
	ids := append(buf, c.servers[s]...)
	c.lmu.Unlock()
	if !aliveOnly {
		return ids
	}
	live := ids[:0]
	for _, id := range ids {
		if n := c.node(id); n != nil && n.Alive() {
			live = append(live, id)
		}
	}
	return live
}

func (c *Cluster) markStripeUnsynced(s int, id string) {
	c.lmu.Lock()
	if i, ok := slices.BinarySearch(c.servers[s], id); ok {
		c.servers[s] = slices.Delete(c.servers[s], i, i+1)
	}
	c.lmu.Unlock()
}

func (c *Cluster) markStripeSynced(s int, id string) {
	c.lmu.Lock()
	if i, ok := slices.BinarySearch(c.servers[s], id); !ok {
		c.servers[s] = slices.Insert(c.servers[s], i, id)
	}
	c.lmu.Unlock()
}

// RunWithStats executes a query scatter-gather: every stripe is scanned
// on one live in-sync replica (stripes grouped per node, nodes scanned
// concurrently), and the per-stripe partials fold back together in
// ascending stripe order — tsdb.MergeStripePartials is the merge and
// emit a single node's Run ends in, fed remote partials instead of local
// ones, so the merged frame is byte-identical to a single node running
// the same query.
func (c *Cluster) RunWithStats(q tsdb.Query) (*schema.Frame, tsdb.QueryStats, error) {
	t0 := time.Now()
	var st tsdb.QueryStats
	parts, owners, err := c.scatter(q)
	if err != nil {
		return nil, st, err
	}
	frame, err := tsdb.MergeStripePartials(q, parts)
	if err != nil {
		return nil, st, err
	}
	st.Workers = owners
	st.Groups = frame.Len()
	for _, sp := range parts {
		st.AddStripe(sp.Stats)
	}
	st.TotalWall = time.Since(t0)
	return frame, st, nil
}

// scatter fans the query's stripe scans across the owning nodes and
// returns the partials in ascending stripe order plus the node fan-out.
func (c *Cluster) scatter(q tsdb.Query) ([]*tsdb.StripePartial, int, error) {
	// Pick each stripe's scan owner: the smallest live in-sync replica,
	// deterministic so repeated queries hit warm nodes.
	byNode := make(map[string][]int)
	var buf [8]string
	for s := 0; s < tsdb.NumStripes; s++ {
		live := c.stripeServers(s, true, buf[:0])
		if len(live) == 0 {
			return nil, 0, fmt.Errorf("%w: %d", ErrStripeDown, s)
		}
		byNode[live[0]] = append(byNode[live[0]], s)
	}
	parts := make([]*tsdb.StripePartial, tsdb.NumStripes)
	var wg sync.WaitGroup
	errs := make([]error, 0, len(byNode))
	var emu sync.Mutex
	for id, stripes := range byNode {
		wg.Add(1)
		go func(id string, stripes []int) {
			defer wg.Done()
			n := c.node(id)
			for _, s := range stripes {
				if n == nil || !n.Alive() {
					emu.Lock()
					errs = append(errs, &nodeDownError{id: id})
					emu.Unlock()
					return
				}
				var sp *tsdb.StripePartial
				err := resilience.Retry(context.Background(), c.cfg.Retry, func() error {
					if err := c.transport.call(OpQuery, routerID, id); err != nil {
						return err
					}
					var serr error
					sp, serr = n.Lake().StripePartial(q, s)
					return serr
				})
				if err != nil {
					emu.Lock()
					errs = append(errs, err)
					emu.Unlock()
					return
				}
				parts[s] = sp
			}
		}(id, stripes)
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, 0, errs[0]
	}
	return parts, len(byNode), nil
}

// Repair restores full replication after failures and membership
// changes: every partition re-replicates its committed suffix out to a
// refreshed follower set (and hands leadership back to ring owners),
// and every under-replicated lake stripe is resynced onto its desired
// owners from a healthy replica. It is idempotent and safe to run on a
// schedule (see RepairLoop); the bench's failover time-to-recovery is
// Kill → first Repair after which Health reports ok.
func (c *Cluster) Repair() error {
	var firstErr error
	for _, t := range c.topicList() {
		for _, ps := range t.parts {
			if err := c.repairPartition(t, ps); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if err := c.repairLake(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// repairPartition refreshes one partition's replica set: ensure a live
// leader, rebuild followers from ring preference (restarted nodes
// re-enter here), catch every follower up, and once the ring's primary
// owner is fully caught up hand leadership back to it so placement
// converges after membership changes.
func (c *Cluster) repairPartition(t *topicState, ps *partitionState) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := c.ensureLeaderLocked(t, ps); err != nil {
		return err
	}
	c.refreshFollowersLocked(ps)
	if err := c.syncToHWLocked(t, ps); err != nil {
		return err
	}
	pref := c.preference(partitionKey(ps.topic, ps.idx))
	if len(pref) == 0 {
		return nil
	}
	primary := ""
	for _, id := range pref {
		if n := c.node(id); n != nil && n.Alive() {
			primary = id
			break
		}
	}
	if primary == "" || primary == ps.leader {
		return nil
	}
	// The primary is among the freshly-synced followers (refresh puts
	// live preference holders first): once it is acked to hw its log
	// holds the full committed prefix, and transfer is safe.
	if ps.acked[primary] >= ps.hw {
		ps.leader = primary
		ps.epoch++
		c.refreshFollowersLocked(ps)
	}
	return nil
}

// repairLake converges every stripe's replica set toward its ring
// placement: missing desired replicas are resynced (drop + ordered
// re-import) from a live in-sync peer, then stragglers beyond RF are
// trimmed. The stripe's write mutex is held across each copy so no
// insert interleaves with the snapshot.
func (c *Cluster) repairLake() error {
	var firstErr error
	for s := 0; s < tsdb.NumStripes; s++ {
		if err := c.repairStripe(s); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (c *Cluster) repairStripe(s int) error {
	c.stripeMu[s].Lock()
	defer c.stripeMu[s].Unlock()
	var buf, all [8]string
	live := c.stripeServers(s, true, buf[:0])
	desired := make([]string, 0, c.cfg.RF)
	for _, id := range c.stripePreference(s) {
		if len(desired) >= c.cfg.RF {
			break
		}
		if n := c.node(id); n != nil && n.Alive() {
			desired = append(desired, id)
		}
	}
	if len(live) == 0 {
		// Every in-sync replica is gone. If none at all remains and no dead
		// member's WAL acked the last batch (its restart can rebuild the
		// stripe), the batches since the stripe's last loss are lost: count
		// them, fence them out of recovery, and restart the stripe empty on
		// the desired owners.
		seq := c.stripeSeqs[s].Load()
		if len(c.stripeServers(s, false, all[:0])) == 0 && !c.ackedOnDisk(s, seq) {
			c.lostInserts.Add(seq - c.lostUpTo[s])
			c.lostUpTo[s] = seq
			for _, id := range desired {
				c.clearStripe(s, id)
				c.markStripeSynced(s, id)
			}
			return nil
		}
		return fmt.Errorf("%w: %d", ErrStripeDown, s)
	}
	for _, id := range desired {
		if slices.Contains(live, id) {
			continue
		}
		// Cheap path first: replay only the missing suffix out of a live
		// peer's WAL. Falls back to the wholesale copy when the target's
		// position is unknown or the peer's log cannot reach back to it.
		if c.catchupStripeFromWAL(s, live[0], id) {
			continue
		}
		if err := c.resyncStripe(s, live[0], id); err != nil {
			return err
		}
	}
	// Trim replicas outside the desired set once it is full, so leave/
	// join rebalances converge instead of accumulating copies.
	if len(desired) >= c.cfg.RF {
		for _, id := range c.stripeServers(s, false, all[:0]) {
			if !slices.Contains(desired, id) {
				c.markStripeUnsynced(s, id)
				c.clearStripe(s, id)
			}
		}
	}
	return nil
}

// ackedOnDisk reports whether a dead member with a WAL acked stripe s's
// batches since its last loss, up to seq.
func (c *Cluster) ackedOnDisk(s int, seq int64) bool {
	for _, id := range c.Nodes() {
		if n := c.node(id); n != nil && !n.Alive() && n.WAL() != nil && seq > c.lostUpTo[s] && n.stripeSeq[s].Load() == seq {
			return true
		}
	}
	return false
}

// clearStripe empties a live node's replica of stripe s — cells,
// sequence and stripe log — so no later recovery claims what it held.
func (c *Cluster) clearStripe(s int, id string) {
	if n := c.node(id); n != nil && n.Alive() {
		_ = n.Lake().DropStripes([]int{s})
		n.stripeSeq[s].Store(c.lostUpTo[s])
		if w := n.WAL(); w != nil {
			_ = w.Remove(stripeLog(s))
		}
	}
}

// resyncStripe copies stripe s from src onto tgt: drop whatever tgt
// holds, then import src's order-preserving export. Caller holds
// stripeMu[s], so the copy is atomic with respect to inserts. The
// target's stripe WAL resets — an out-of-band copy is state its log
// never described, so the stripe is no longer disk-recoverable on tgt
// (its history restarts mid-sequence); only peer catch-up or another
// wholesale copy can rebuild it after tgt's next crash.
func (c *Cluster) resyncStripe(s int, src, tgt string) error {
	sn, tn := c.node(src), c.node(tgt)
	if sn == nil || !sn.Alive() {
		return &nodeDownError{id: src}
	}
	if tn == nil || !tn.Alive() {
		return &nodeDownError{id: tgt}
	}
	return resilience.Retry(context.Background(), c.cfg.Retry, func() error {
		if err := c.transport.call(OpResync, src, tgt); err != nil {
			return err
		}
		frame, err := sn.Lake().ExportStripes([]int{s})
		if err != nil {
			return err
		}
		if err := tn.Lake().DropStripes([]int{s}); err != nil {
			return err
		}
		if err := tn.Lake().ImportStripes(frame); err != nil {
			return err
		}
		if w := tn.WAL(); w != nil {
			_ = w.Remove(stripeLog(s))
		}
		tn.stripeSeq[s].Store(c.stripeSeqs[s].Load())
		c.markStripeSynced(s, tgt)
		c.lakeResyncs.Add(1)
		return nil
	})
}

// RepairLoop runs Repair on a cadence under a resilience supervisor
// until ctx ends — the background re-replication daemon. The supervisor
// restarts the loop if a repair pass panics.
func (c *Cluster) RepairLoop(ctx context.Context, every time.Duration) error {
	if every <= 0 {
		every = time.Second
	}
	sup := resilience.NewSupervisor(resilience.SupervisorConfig{Name: "cluster-repair"})
	return sup.Run(ctx, func(ctx context.Context) error {
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-tick.C:
				_ = c.Repair() // degraded partitions/stripes retry next tick
			}
		}
	})
}
