package cluster

import (
	"errors"
	"fmt"
	"net/url"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"odakit/internal/obs"
	"odakit/internal/plane"
	"odakit/internal/resilience"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
	"odakit/internal/wal"
)

// Cluster errors.
var (
	// ErrPartitionDown reports a topic partition with no live replica —
	// the cluster keeps serving everything else (degraded), but this
	// partition's data is unavailable until a replica returns.
	ErrPartitionDown = errors.New("cluster: no live replica for partition")
	// ErrQuorumLost reports a publish that could not gather Quorum
	// replica acks. Its messages are not committed and never will be:
	// they stay invisible past the high watermark until the partition's
	// next append cuts them, so publishing them again lands them once.
	ErrQuorumLost = errors.New("cluster: publish could not reach quorum")
	// ErrStripeDown reports a LAKE stripe with no live in-sync replica.
	ErrStripeDown = errors.New("cluster: no live in-sync replica for stripe")
	// ErrNodeDown reports a call addressed to a dead node.
	ErrNodeDown = errors.New("cluster: node down")
	// ErrUnknownNode reports an ID outside the membership.
	ErrUnknownNode = errors.New("cluster: unknown node")
)

// routerID is the transport "from" endpoint for client-path calls
// (publish, fetch, insert, query) issued by the cluster router itself.
const routerID = "router"

// nodeDownError classifies as transient: the node may restart.
type nodeDownError struct{ id string }

func (e *nodeDownError) Error() string   { return fmt.Sprintf("%v: %s", ErrNodeDown, e.id) }
func (e *nodeDownError) Unwrap() error   { return ErrNodeDown }
func (e *nodeDownError) Transient() bool { return true }

// quorumError classifies as transient: replicas heal, retries commit.
type quorumError struct {
	topic        string
	part         int
	acks, quorum int
	cause        error
}

func (e *quorumError) Error() string {
	return fmt.Sprintf("%v: %s/%d %d/%d acks: %v", ErrQuorumLost, e.topic, e.part, e.acks, e.quorum, e.cause)
}
func (e *quorumError) Unwrap() error   { return ErrQuorumLost }
func (e *quorumError) Transient() bool { return true }

// Config tunes a cluster. Zero values select defaults.
type Config struct {
	// RF is the replication factor for topic partitions and lake
	// stripes (default 2, capped at the node count).
	RF int
	// Quorum is how many replicas (leader included) must hold a publish
	// before it commits and becomes readable (default RF). Lowering it
	// trades durability for availability under partitions.
	Quorum int
	// LakeOptions configures every node's tsdb store. All nodes must
	// share one geometry or re-replication would re-bucket cells, and New
	// refuses a geometry whose stripes a resync cannot rebuild
	// (tsdb.NewGeometry).
	LakeOptions tsdb.Options
	// Retry shapes the replication/insert/query retry loops
	// (resilience.Policy defaults apply).
	Retry resilience.Policy
	// WALDir, when non-empty, gives every node a persistent write-ahead
	// log under WALDir/<node id>: leaders and followers append+fsync
	// replicated records before acking, and Restart replays the local
	// WAL to rebuild the node's broker logs and lake hot tier before
	// fetching only the missing suffix from peers. Empty keeps the
	// memory-only behavior (a restarted node resyncs wholesale).
	WALDir string
	// WALSegmentBytes overrides the WAL segment rotation threshold
	// (wal.DefaultSegmentBytes when zero).
	WALSegmentBytes int64
}

func (c Config) withDefaults(nodes int) Config {
	if c.RF <= 0 {
		c.RF = 2
	}
	c.RF = min(c.RF, nodes)
	if c.Quorum <= 0 || c.Quorum > c.RF {
		c.Quorum = c.RF
	}
	if c.WALSegmentBytes <= 0 {
		c.WALSegmentBytes = wal.DefaultSegmentBytes
	}
	return c
}

// nodeWAL places a node's write-ahead log under WALDir/<escaped id>;
// the zero wal.Config (empty Dir) disables the WAL entirely.
func (c Config) nodeWAL(id string) wal.Config {
	if c.WALDir == "" {
		return wal.Config{}
	}
	return wal.Config{Dir: filepath.Join(c.WALDir, url.PathEscape(id)), SegmentBytes: c.WALSegmentBytes}
}

// partitionState is the cluster-side replication state of one topic
// partition. Its mutex serializes publishes, fetches, failover, and
// repair for the partition; the invariants it protects are that offsets
// in [0, hw) are quorum-replicated and immutable, and that a replica's
// log is trusted only up to its acked end: anything past it (a publish
// that missed its quorum) is cut before the replica takes an append.
type partitionState struct {
	topic string
	idx   int

	mu        sync.Mutex
	epoch     int64
	leader    string
	followers []string
	acked     map[string]int64 // replica → end of its trusted prefix, never past hw
	hw        int64            // high watermark: reads stop here
	truncs    []hwTrunc        // beyond-quorum hw truncations, for stale-WAL fencing
	// notify wakes readers parked in Ready; it exists while one waits and
	// is closed where hw rises.
	notify chan struct{}
	// page is the record headers the partition's replication and WAL
	// staging read the leader log into, reused under mu: what they read
	// is copied into the follower's log or the WAL, and the page zeroed
	// (stream.KeepPage), before mu is released.
	page []stream.Record
}

// hwTrunc records one beyond-quorum truncation: at epoch, the committed
// prefix was cut back to off. A restarting node whose WAL's last commit
// barrier predates epoch must not trust offsets ≥ off — the cluster may
// have rewritten them — so WAL recovery fences its replay below the
// earliest truncation newer than its barrier (leader-epoch fencing, in
// the Kafka sense).
type hwTrunc struct {
	epoch int64
	off   int64
}

type topicState struct {
	name  string
	cfg   stream.TopicConfig
	parts []*partitionState
	rr    atomic.Uint64 // keyless round-robin, cluster-level
}

// Cluster is N in-process nodes behind a consistent-hash ring: a
// replicated STREAM (leader/follower partition logs, quorum-acked high
// watermark) and a replicated LAKE (stripe replicas, scatter-gather
// reads) that keep serving through single-node loss.
type Cluster struct {
	cfg       Config
	transport *Transport

	mu     sync.RWMutex // membership, ring, topics map structure
	nodes  map[string]*Node
	ring   *Ring
	topics map[string]*topicState

	// Lake placement: servers[s] is stripe s's in-sync replica set, sorted;
	// stripeMu[s] serializes stripe s's writes (and resyncs) so every
	// replica applies them in the same order — per-stripe insertion
	// order is what makes replica scans byte-identical.
	lmu      sync.Mutex
	servers  [tsdb.NumStripes][]string
	stripeMu [tsdb.NumStripes]sync.Mutex
	// stripeSeqs[s] counts stripe s's committed insert batches (guarded
	// by stripeMu[s]); replica WALs record each batch under its sequence
	// so recovery can tell a fully-caught-up stripe from one missing a
	// suffix.
	stripeSeqs [tsdb.NumStripes]atomic.Int64
	lostUpTo   [tsdb.NumStripes]int64 // stripeSeqs[s] at stripe s's last counted loss (stripeMu[s])

	epoch atomic.Int64 // bumps on every membership event

	// Counters surfaced via metrics and Health.
	failovers      atomic.Int64
	rebalances     atomic.Int64
	lakeResyncs    atomic.Int64
	quorumFailures atomic.Int64
	committed      atomic.Int64 // committed publish batches
	replicated     atomic.Int64 // records shipped leader → follower
	truncatedHW    atomic.Int64 // committed records lost to multi-failure
	lostInserts    atomic.Int64 // committed lake insert batches lost the same way

	// WAL counters (all zero when Config.WALDir is empty).
	walCrashes          atomic.Int64 // nodes failed because their WAL could not persist
	walRecoveredRecords atomic.Int64 // partition records rebuilt from local WALs
	walRecoveredRows    atomic.Int64 // lake rows rebuilt from local WALs
	walRecoveriesDisk   atomic.Int64 // Restarts that recovered state from disk
	walRecoveriesPeer   atomic.Int64 // Restarts that came back empty (peer resync)
	lakeCatchups        atomic.Int64 // stripe suffix catch-ups from a peer's WAL
	flushWaves          atomic.Int64 // flush waves run (one per durable batch)
	flushWaveLogs       atomic.Int64 // logs flushed by those waves
	// flushWaveSeconds times a wave from its start to its last Sync
	// returning; nil (a no-op) until Instrument registers it.
	flushWaveSeconds atomic.Pointer[obs.Histogram]
}

// A Cluster is a whole data plane: anything written against plane.Stream
// and plane.Lake runs on it unchanged.
var (
	_ plane.Stream = (*Cluster)(nil)
	_ plane.Lake   = (*Cluster)(nil)
)

// New builds a cluster of the given node IDs. The node list is the
// initial membership; AddNode/RemoveNode change it later.
func New(nodeIDs []string, cfg Config) (*Cluster, error) {
	if len(nodeIDs) == 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	seen := make(map[string]bool, len(nodeIDs))
	for _, id := range nodeIDs {
		if id == "" || id == routerID {
			return nil, fmt.Errorf("cluster: invalid node id %q", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate node id %q", id)
		}
		seen[id] = true
	}
	cfg = cfg.withDefaults(len(nodeIDs))
	if _, err := tsdb.NewGeometry(cfg.LakeOptions.RollupInterval, cfg.LakeOptions.SegmentDuration); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c := &Cluster{
		cfg:       cfg,
		transport: newTransport(),
		nodes:     make(map[string]*Node, len(nodeIDs)),
		ring:      NewRing(),
		topics:    make(map[string]*topicState),
	}
	for _, id := range nodeIDs {
		n, err := newNode(id, cfg.LakeOptions, cfg.nodeWAL(id))
		if err != nil {
			return nil, err
		}
		c.nodes[id] = n
		c.ring.Add(id)
	}
	for s := range c.servers {
		c.servers[s] = slices.Clone(c.ring.Owners(stripeKey(s), cfg.RF))
		slices.Sort(c.servers[s])
	}
	return c, nil
}

// Transport exposes the inter-node message plane so chaos suites can
// install fault hooks and partition links.
func (c *Cluster) Transport() *Transport { return c.transport }

// Nodes returns the sorted member IDs.
func (c *Cluster) Nodes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.nodes))
	for id := range c.nodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// node resolves an ID to its Node (nil when unknown/removed).
func (c *Cluster) node(id string) *Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[id]
}

func partitionKey(topic string, idx int) string {
	return topic + "/" + strconv.Itoa(idx)
}

func stripeKey(s int) string { return "stripe/" + strconv.Itoa(s) }

// preference returns every current member in ring-walk order for a key:
// the placement preference list. The first RF live entries are the
// desired replica set.
func (c *Cluster) preference(key string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring.Owners(key, len(c.nodes))
}

func (c *Cluster) stripePreference(s int) []string {
	return c.ring.Owners(stripeKey(s), len(c.nodes))
}

// CreateTopic creates a replicated topic on every node and assigns each
// partition a leader and RF-1 followers from the ring.
func (c *Cluster) CreateTopic(name string, cfg stream.TopicConfig) error {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 4
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.topics[name]; ok {
		return fmt.Errorf("%w: %s", stream.ErrTopicExists, name)
	}
	for _, n := range c.nodes {
		if err := n.Broker.EnsureTopic(name, cfg); err != nil {
			return err
		}
	}
	t := &topicState{name: name, cfg: cfg, parts: make([]*partitionState, cfg.Partitions)}
	for p := 0; p < cfg.Partitions; p++ {
		owners := c.ring.Owners(partitionKey(name, p), c.cfg.RF)
		ps := &partitionState{
			topic: name, idx: p,
			leader: owners[0], followers: append([]string(nil), owners[1:]...),
			acked: make(map[string]int64, c.cfg.RF),
		}
		t.parts[p] = ps
	}
	c.topics[name] = t
	return nil
}

// EnsureTopic creates the topic if it does not already exist.
func (c *Cluster) EnsureTopic(name string, cfg stream.TopicConfig) error {
	err := c.CreateTopic(name, cfg)
	if errors.Is(err, stream.ErrTopicExists) {
		return nil
	}
	return err
}

// Topics returns the sorted replicated topic names.
func (c *Cluster) Topics() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.topics))
	for n := range c.topics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (c *Cluster) topic(name string) (*topicState, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", stream.ErrNoTopic, name)
	}
	return t, nil
}

// Partitions returns the partition count of a topic.
func (c *Cluster) Partitions(name string) (int, error) {
	t, err := c.topic(name)
	if err != nil {
		return 0, err
	}
	return len(t.parts), nil
}

// Kill marks a node dead (a crash: its memory-resident data is gone
// when it returns via Restart) and eagerly fails over every partition
// it led, so serving continues from the most-caught-up followers.
// Re-replication back to full RF happens in Repair.
func (c *Cluster) Kill(id string) error {
	n := c.node(id)
	if n == nil {
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	if !n.alive.CompareAndSwap(true, false) {
		return nil // already dead
	}
	c.epoch.Add(1)
	for _, t := range c.topicList() {
		for _, ps := range t.parts {
			ps.mu.Lock()
			if ps.leader == id {
				// Best-effort: a partition with no live replica stays
				// leaderless (ErrPartitionDown) until one returns.
				_ = c.ensureLeaderLocked(t, ps)
			}
			ps.mu.Unlock()
		}
	}
	return nil
}

// Restart brings a killed node back and re-enters it into the
// membership. Without a WAL the crash wiped its broker logs and lake
// store, so it returns empty and Repair re-replicates it wholesale.
// With one, the local WAL replays first — rebuilding the broker logs
// (fenced below any truncation a newer epoch performed, so a stale WAL
// cannot resurrect superseded records) and the lake hot tier — and
// Repair then ships only the suffix past the recovered high watermark.
func (c *Cluster) Restart(id string) error {
	n := c.node(id)
	if n == nil {
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	if n.Alive() {
		return nil
	}
	// Wipe: recreate every replicated topic empty, swap in a fresh lake.
	// With a WAL this is still the starting point — recovery replays the
	// log into the fresh broker and store.
	for _, t := range c.topicList() {
		_ = n.Broker.DeleteTopic(t.name)
		if err := n.Broker.EnsureTopic(t.name, t.cfg); err != nil {
			return err
		}
	}
	n.resetLake(c.cfg.LakeOptions)
	for s := range n.stripeSeq {
		n.stripeSeq[s].Store(0)
	}
	for s := range c.servers {
		c.markStripeUnsynced(s, id)
	}
	for _, t := range c.topicList() {
		for _, ps := range t.parts {
			ps.mu.Lock()
			delete(ps.acked, id) // its log restarted at zero
			ps.mu.Unlock()
		}
	}
	if n.walCfg.Dir != "" {
		w, err := n.reopenWAL()
		if err != nil {
			return fmt.Errorf("cluster: restart %s: %w", id, err)
		}
		if c.recoverNode(n, w) {
			c.walRecoveriesDisk.Add(1)
		} else {
			c.walRecoveriesPeer.Add(1)
		}
	}
	n.alive.Store(true)
	c.epoch.Add(1)
	return nil
}

// AddNode joins a new empty node and rebalances placement toward it.
// Data movement (follower catch-up, stripe resync) happens in Repair;
// call it (or run RepairLoop) after joining.
func (c *Cluster) AddNode(id string) error {
	if id == "" || id == routerID {
		return fmt.Errorf("cluster: invalid node id %q", id)
	}
	c.mu.Lock()
	if _, ok := c.nodes[id]; ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: node %s already present", id)
	}
	n, err := newNode(id, c.cfg.LakeOptions, c.cfg.nodeWAL(id))
	if err != nil {
		c.mu.Unlock()
		return err
	}
	for _, t := range c.topics {
		if err := n.Broker.EnsureTopic(t.name, t.cfg); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	c.nodes[id] = n
	c.ring.Add(id)
	c.mu.Unlock()
	c.epoch.Add(1)
	c.rebalances.Add(1)
	return nil
}

// RemoveNode gracefully drains a live node out of the cluster: it is
// taken off the ring, Repair moves every leadership, follower slot, and
// lake stripe it held onto the remaining members (with full catch-up
// before any handoff), and only then is it dropped from the membership.
func (c *Cluster) RemoveNode(id string) error {
	c.mu.Lock()
	if _, ok := c.nodes[id]; !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	if len(c.nodes) == 1 {
		c.mu.Unlock()
		return fmt.Errorf("cluster: cannot remove the last node %s", id)
	}
	c.ring.Remove(id)
	c.mu.Unlock()
	c.epoch.Add(1)
	c.rebalances.Add(1)
	// Drain: repair now prefers the surviving members everywhere.
	if err := c.Repair(); err != nil {
		return err
	}
	// Nothing references the node anymore; drop it.
	for s := range c.servers {
		c.markStripeUnsynced(s, id)
	}
	for _, t := range c.topicList() {
		for _, ps := range t.parts {
			ps.mu.Lock()
			delete(ps.acked, id)
			ps.mu.Unlock()
		}
	}
	c.mu.Lock()
	delete(c.nodes, id)
	c.mu.Unlock()
	return nil
}

func (c *Cluster) topicList() []*topicState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*topicState, 0, len(c.topics))
	names := make([]string, 0, len(c.topics))
	for n := range c.topics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out = append(out, c.topics[n])
	}
	return out
}

// ensureLeaderLocked verifies the partition has a live leader that holds
// hw (one that restarted holds only what its WAL recovered), failing over
// to the most-caught-up live replica when it does not. ps.mu held.
func (c *Cluster) ensureLeaderLocked(t *topicState, ps *partitionState) error {
	if n := c.node(ps.leader); n != nil && n.Alive() && ps.acked[ps.leader] >= ps.hw {
		return nil
	}
	return c.failoverLocked(t, ps)
}

// failoverLocked promotes the live replica with the longest trusted
// prefix: min(actual log end, acked end), since past its acked end a
// replica may hold a suffix no quorum committed — ties break to the
// smallest ID for determinism. The epoch bumps so observers can order
// leadership changes. ps.mu held.
func (c *Cluster) failoverLocked(t *topicState, ps *partitionState) error {
	cands := make([]string, 0, 1+len(ps.followers))
	cands = append(cands, ps.leader)
	cands = append(cands, ps.followers...)
	sort.Strings(cands)
	best, bestEnd := "", int64(-1)
	for _, id := range cands {
		n := c.node(id)
		if n == nil || !n.Alive() {
			continue
		}
		end, err := n.Broker.EndOffset(t.name, ps.idx)
		if err != nil {
			continue
		}
		if end = min(end, ps.acked[id]); end > bestEnd {
			best, bestEnd = id, end
		}
	}
	if best == "" {
		return fmt.Errorf("%w: %s/%d", ErrPartitionDown, t.name, ps.idx)
	}
	ps.leader = best
	ps.epoch++
	c.failovers.Add(1)
	if bestEnd < ps.hw {
		// More nodes died than the quorum tolerates: committed records
		// beyond the survivor's log are gone. Record the truncation
		// honestly instead of serving offsets no replica holds, and keep
		// the fence so a dead replica's WAL — written before this epoch —
		// cannot replay the superseded region back into the cluster. No
		// replica's trusted prefix reaches past the new watermark.
		c.truncatedHW.Add(ps.hw - bestEnd)
		ps.hw = bestEnd
		ps.truncs = append(ps.truncs, hwTrunc{epoch: ps.epoch, off: bestEnd})
		for id, a := range ps.acked {
			ps.acked[id] = min(a, bestEnd)
		}
	}
	c.refreshFollowersLocked(ps)
	return nil
}

// refreshFollowersLocked rebuilds the follower set: the first RF-1 live
// preference-order members excluding the leader. Dead ring owners
// re-enter when they restart (Repair refreshes again). ps.mu held.
func (c *Cluster) refreshFollowersLocked(ps *partitionState) {
	pref := c.preference(partitionKey(ps.topic, ps.idx))
	followers := make([]string, 0, c.cfg.RF-1)
	for _, id := range pref {
		if len(followers) >= c.cfg.RF-1 {
			break
		}
		if id == ps.leader {
			continue
		}
		if n := c.node(id); n != nil && n.Alive() {
			followers = append(followers, id)
		}
	}
	ps.followers = followers
}
