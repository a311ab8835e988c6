package cluster

// The one cluster harness: build makes every cluster this package's tests
// use, and sim drives one through a schedule of ops while a reference
// model — committed records as per-partition slices, committed
// observations in a single-node tsdb.DB answered by RunSerial — says what
// every read must return. After every step:
//
//   - every read (a partition read at any page size, a plane.Reader page,
//     the whole-lake query, a random query) is byte-identical to the model;
//   - every committed record is held once, and every replica's acked
//     prefix is the model's prefix, broker timestamps included;
//   - no high watermark regresses, except by exactly what
//     Health().TruncatedHW counts in that step, and a stripe loses its
//     batches only in a repair that found no member able to rebuild them.
//
// A schedule is text, one op per line (op.String), so a literal schedule
// in a table and the shrunk failure the simulator prints are one format.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"odakit/internal/faults"
	"odakit/internal/plane"
	"odakit/internal/resilience"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
	"odakit/internal/wal"
)

// build is the one place a test in this package makes a cluster: nodes
// n1..nN, the property-test lake geometry, and 2 KiB WAL segments (so
// rotation is exercised constantly) when cfg names a WAL directory.
func build(t testing.TB, nodes int, cfg Config) *Cluster {
	t.Helper()
	ids := make([]string, nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i+1)
	}
	cfg.LakeOptions = lakeOpts()
	if cfg.WALDir != "" {
		cfg.WALSegmentBytes = 2 << 10
	}
	c, err := New(ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const simTopic = "telemetry"

// simShape is a schedule's header line: "cluster 3 rf=2 q=2 parts=4 wal".
type simShape struct {
	nodes, rf, quorum, parts int
	wal                      bool
}

func (s simShape) String() string {
	out := fmt.Sprintf("cluster %d rf=%d q=%d parts=%d", s.nodes, s.rf, s.quorum, s.parts)
	if s.wal {
		out += " wal"
	}
	return out
}

// op is one schedule step. Its line forms:
//
//	pub 0 a=x =y b=z*3     producer 0 publishes a batch ("=y" is keyless, "*3" repeats)
//	retry 0                producer 0 publishes the Failed messages it holds
//	kill n1 | restart n1 | join n4 | drain n1 | repair | poll
//	cut n1>n2 | heal n1>n2 a directed inter-node link
//	insert 24 7            24 observations drawn from seed 7
//	query 7                the random query drawn from seed 7
//	crash n2 wal.fsync t/telemetry/0 1   n2 crashes at that log's 1st fsync from now on
//	crash n1 cluster.replicate 2         n1 crashes at its 2nd replicate send from now on
//
// A line may end in "=> observation", which the step must then report.
type op struct {
	kind     string
	node     string // kill, restart, join, drain, crash; cut and heal: "from>to"
	prod     int
	msgs     []stream.Message
	n, seed  int64 // insert; query uses seed; crash: n is the count
	fault    string
	log      string
	expected string
}

func (o op) String() string {
	switch o.kind {
	case "pub":
		var b strings.Builder
		fmt.Fprintf(&b, "pub %d", o.prod)
		for i := 0; i < len(o.msgs); {
			j := i + 1
			for j < len(o.msgs) && sameMsg(o.msgs[j], o.msgs[i]) {
				j++
			}
			fmt.Fprintf(&b, " %s=%s", o.msgs[i].Key, o.msgs[i].Value)
			if j-i > 1 {
				fmt.Fprintf(&b, "*%d", j-i)
			}
			i = j
		}
		return b.String()
	case "retry":
		return fmt.Sprintf("retry %d", o.prod)
	case "insert":
		return fmt.Sprintf("insert %d %d", o.n, o.seed)
	case "query":
		return fmt.Sprintf("query %d", o.seed)
	case "crash":
		return strings.Join(strings.Fields(fmt.Sprintf("crash %s %s %s %d", o.node, o.fault, o.log, o.n)), " ")
	case "repair", "poll":
		return o.kind
	}
	return o.kind + " " + o.node
}

func sameMsg(a, b stream.Message) bool {
	return string(a.Key) == string(b.Key) && string(a.Value) == string(b.Value)
}

// parseSchedule reads a schedule's text: the header, then one op a line;
// blank lines and "#" comments are skipped.
func parseSchedule(text string) (simShape, []op, error) {
	var sh simShape
	var ops []op
	for _, line := range strings.Split(text, "\n") {
		line, _, _ = strings.Cut(line, "#")
		line, expected, _ := strings.Cut(line, "=>")
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		num := func(i int) int64 {
			n, _ := strconv.ParseInt(f[min(i, len(f)-1)], 10, 64)
			return n
		}
		if f[0] == "cluster" {
			sh = simShape{nodes: int(num(1)), rf: 2, quorum: 2, parts: 4}
			for _, kv := range f[2:] {
				k, v, _ := strings.Cut(kv, "=")
				n, _ := strconv.Atoi(v)
				switch k {
				case "rf":
					sh.rf = n
				case "q":
					sh.quorum = n
				case "parts":
					sh.parts = n
				case "wal":
					sh.wal = true
				}
			}
			continue
		}
		o := op{kind: f[0], expected: strings.TrimSpace(expected)}
		switch o.kind {
		case "pub", "retry":
			o.prod = int(num(1))
			for _, m := range f[min(2, len(f)):] {
				kv, rep, _ := strings.Cut(m, "*")
				k, v, _ := strings.Cut(kv, "=")
				reps, _ := strconv.Atoi(rep)
				for i := 0; i < max(reps, 1); i++ {
					o.msgs = append(o.msgs, stream.Message{Key: []byte(k), Value: []byte(v)})
				}
			}
		case "insert":
			o.n, o.seed = num(1), num(2)
		case "query":
			o.seed = num(1)
		case "crash":
			o.node, o.fault, o.n = f[1], f[2], num(len(f)-1)
			if len(f) == 5 {
				o.log = f[3]
			}
		case "repair", "poll":
		case "kill", "restart", "join", "drain", "cut", "heal":
			o.node = f[1]
		default:
			return sh, nil, fmt.Errorf("unknown op %q", line)
		}
		ops = append(ops, o)
	}
	if sh.nodes == 0 {
		return sh, nil, errors.New("schedule has no cluster line")
	}
	return sh, ops, nil
}

// crashPoint fails the count-th matching call on node from the time it
// was armed. WAL points are keyed by (node, log), so the goroutine order
// inside a flush wave cannot move which call it lands on.
type crashPoint struct {
	node, fault, log string
	left             int64
}

// sim is one cluster under a schedule, checked against the model.
type sim struct {
	c       *Cluster
	m       model
	pending map[int][]stream.Message // per producer: Failed, awaiting a retry
	failed  []stream.Message         // the last publish's Failed, as returned
	reader  *plane.Reader
	cursors []int64
	links   map[string]bool // cut inter-node links
	cuts    [][]hwTrunc     // each partition's truncations, as last checked
	hw      []int64
	holders *[tsdb.NumStripes]string // before a repair: who can rebuild each stripe
	last    Health
	counts  [9]int64
	joined  int // nodes the generator has joined

	mu     sync.Mutex
	points []*crashPoint
}

func newSim(t testing.TB, sh simShape) *sim {
	t.Helper()
	cfg := Config{RF: sh.rf, Quorum: sh.quorum, Retry: resilience.NoRetry}
	if sh.wal {
		cfg.WALDir = t.TempDir()
	}
	s := &sim{
		c: build(t, sh.nodes, cfg), pending: map[int][]stream.Message{}, links: map[string]bool{},
		m:  model{logs: make([][]stream.Record, sh.parts), lake: tsdb.New(lakeOpts())},
		hw: make([]int64, sh.parts), cursors: make([]int64, sh.parts), cuts: make([][]hwTrunc, sh.parts),
	}
	if err := s.c.CreateTopic(simTopic, stream.TopicConfig{Partitions: sh.parts}); err != nil {
		t.Fatal(err)
	}
	var err error
	if s.reader, err = plane.NewReader(s.c, simTopic); err != nil {
		t.Fatal(err)
	}
	s.c.Transport().SetFaultHook(s.transportFault)
	s.last, s.counts = s.c.Health(), s.counters()
	return s
}

// transportFault is the sim's transport: a dead node sends and receives
// nothing, and an armed replicate crash point kills its sender.
func (s *sim) transportFault(op, link string) error {
	from, to, _ := strings.Cut(link, ">")
	for _, id := range []string{from, to} {
		if n := s.c.node(id); n != nil && !n.Alive() {
			return &faults.InjectedError{Op: op, Target: link}
		}
	}
	if s.fire(from, op, "") {
		s.c.node(from).alive.Store(false) // Kill would wait on the lock this call holds
		return &faults.InjectedError{Op: op, Target: link, Permanent: true}
	}
	return nil
}

func (s *sim) armed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.points)
}

func (s *sim) fire(node, fault, log string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, p := range s.points {
		if p.node == node && p.fault == fault && p.log == log {
			if p.left--; p.left == 0 {
				s.points = append(s.points[:i], s.points[i+1:]...)
				return true
			}
		}
	}
	return false
}

// counters are the Health and WAL counters an observation reports deltas of.
var counterNames = [9]string{"failovers", "truncated", "lost", "shipped", "resynced", "caught up", "recovered", "rows", "crashed"}

func (s *sim) counters() [9]int64 {
	h, c := s.c.Health(), s.c
	return [9]int64{h.Failovers, h.TruncatedHW, h.LostInserts, c.replicated.Load(), c.lakeResyncs.Load(),
		c.lakeCatchups.Load(), c.walRecoveredRecords.Load(), c.walRecoveredRows.Load(), c.walCrashes.Load()}
}

// errClass names an error by the cluster sentinel it wraps.
func errClass(err error) string {
	for _, e := range []error{ErrQuorumLost, ErrPartitionDown, ErrStripeDown, ErrNodeDown, ErrLinkDown, ErrUnknownNode} {
		if errors.Is(err, e) {
			return strings.TrimPrefix(e.Error(), "cluster: ")
		}
	}
	var ie *faults.InjectedError
	if errors.As(err, &ie) {
		return "injected"
	}
	return err.Error()
}

func outcome(err error) string {
	if err == nil {
		return "ok"
	}
	return errClass(err)
}

// step runs one op and checks the model; it returns the observation —
// the op's outcome, the watermarks, the health status and every counter
// that moved — and the first violation.
func (s *sim) step(o op) (string, error) {
	for _, id := range s.c.Nodes() {
		if w := s.c.NodeWAL(id); w != nil && s.armed() > 0 {
			w.SetFaultHook(func(fault, log string) error {
				if s.fire(id, fault, log) {
					return &faults.InjectedError{Op: fault, Target: log, Permanent: true}
				}
				return nil
			})
		}
	}
	s.holders = nil
	if o.kind == "repair" || o.kind == "drain" {
		h := s.stripeHolders()
		s.holders = &h
	}
	add := make([][]stream.Record, len(s.m.logs))
	res, err := s.exec(o, add)
	if err == nil {
		err = s.check(add)
	}
	h, counts := s.c.Health(), s.counters()
	obs := fmt.Sprintf("%s; hw %v; %s", res, s.hw, h.Status)
	for i, name := range counterNames {
		if d := counts[i] - s.counts[i]; d != 0 {
			obs += fmt.Sprintf("; %s %+d", name, d)
		}
	}
	s.last, s.counts = h, counts
	if err == nil && o.expected != "" && obs != o.expected {
		err = fmt.Errorf("observed %q, want %q", obs, o.expected)
	}
	return obs, err
}

func (s *sim) exec(o op, add [][]stream.Record) (string, error) {
	c := s.c
	switch o.kind {
	case "pub", "retry":
		msgs := o.msgs
		if o.kind == "retry" {
			msgs, s.pending[o.prod] = s.pending[o.prod], nil
		}
		if len(msgs) == 0 {
			return "nothing to publish", nil
		}
		return s.publish(o.prod, msgs, add)
	case "kill":
		return outcome(c.Kill(o.node)), nil
	case "restart":
		return outcome(c.Restart(o.node)), nil
	case "join":
		return outcome(c.AddNode(o.node)), nil
	case "drain":
		if err := c.RemoveNode(o.node); err != nil || c.node(o.node) == nil {
			return outcome(err), nil
		}
		return "", fmt.Errorf("%s is still a member after its drain", o.node)
	case "repair":
		return outcome(c.Repair()), nil
	case "cut", "heal":
		from, to, _ := strings.Cut(o.node, ">")
		if o.kind == "cut" {
			c.Transport().PartitionLink(from, to)
		} else {
			c.Transport().HealLink(from, to)
		}
		s.links[o.node] = o.kind == "cut"
		return "ok", nil
	case "crash":
		s.mu.Lock()
		s.points = append(s.points, &crashPoint{node: o.node, fault: o.fault, log: o.log, left: o.n})
		s.mu.Unlock()
		return "armed", nil
	case "insert":
		obs := seedObsBatch(rand.New(rand.NewSource(o.seed)), int(o.n))
		err := c.InsertBatch(obs)
		// A stripe whose sequence moved past the model's committed its
		// share; no in-sync replica holds the share of one that did not.
		kept := obs[:0:0]
		for _, ob := range obs {
			if st := tsdb.StripeFor(ob.Component, ob.Metric); c.stripeSeqs[st].Load() > s.m.seqs[st] {
				kept = append(kept, ob)
			}
		}
		if err == nil && len(kept) != len(obs) {
			return "", fmt.Errorf("insert succeeded but committed %d of %d observations", len(kept), len(obs))
		}
		if err := s.m.lake.InsertBatch(kept); err != nil {
			return "", err
		}
		return fmt.Sprintf("%s, %d of %d committed", outcome(err), len(kept), len(obs)), nil
	case "query":
		return s.query(randomQuery(rand.New(rand.NewSource(o.seed))))
	case "poll":
		return s.poll()
	}
	return "", fmt.Errorf("unknown op %q", o.kind)
}

// publish runs one PublishBatch and tells the model which sub-batches
// committed: Failed must be whole partitions' sub-batches, in partition
// order, and the rest is committed.
func (s *sim) publish(prod int, msgs []stream.Message, add [][]stream.Record) (string, error) {
	route := s.m.route(msgs)
	n, err := s.c.PublishBatch(simTopic, msgs)
	failed := map[int]bool{}
	s.failed = nil
	if err != nil {
		var pp *stream.PartialPublishError
		if !errors.As(err, &pp) {
			return "", fmt.Errorf("publish error %v is not a PartialPublishError", err)
		}
		// Failed is whole partitions' sub-batches in partition order; a
		// Failed message shares its value's bytes with the one published.
		idx := map[*byte]int{}
		for i := range msgs {
			idx[&msgs[i].Value[0]] = i
		}
		var got, want []int
		for _, f := range pp.Failed {
			got = append(got, idx[&f.Value[0]])
			failed[route[got[len(got)-1]]] = true
		}
		for p := range s.m.logs {
			for i := range msgs {
				if route[i] == p && failed[p] {
					want = append(want, i)
				}
			}
		}
		if !slices.Equal(got, want) || n+len(want) != len(msgs) {
			return "", fmt.Errorf("published %d, Failed %v: not whole partitions, in order, of the batch routed %v", n, got, route)
		}
		s.pending[prod] = append(s.pending[prod], pp.Failed...)
		s.failed, err = pp.Failed, pp.Err
	}
	for i, m := range msgs {
		if !failed[route[i]] {
			add[route[i]] = append(add[route[i]], stream.Record{Key: m.Key, Value: m.Value})
		}
	}
	if err != nil {
		return fmt.Sprintf("published %d, failed %d: %s", n, len(msgs)-n, errClass(err)), nil
	}
	return fmt.Sprintf("published %d", n), nil
}

// next draws the op to run after the sim's current state: producers
// publish from a small alphabet, so content repeats.
func (s *sim) next(rng *rand.Rand, sh simShape) op {
	var alive, dead []string
	members := s.c.Nodes()
	for _, id := range members {
		if s.c.node(id).Alive() {
			alive = append(alive, id)
		} else {
			dead = append(dead, id)
		}
	}
	pick := func(ids []string) string { return ids[rng.Intn(len(ids))] }
	var cut []string
	for l, on := range s.links {
		if on {
			cut = append(cut, l)
		}
	}
	sort.Strings(cut)
	prod := rng.Intn(2)
	switch r := rng.Intn(100); {
	case r < 30:
		msgs := make([]stream.Message, 1+rng.Intn(6))
		for i := range msgs {
			msgs[i] = stream.Message{Key: []byte([]string{"", "a", "b", "c", "d"}[rng.Intn(5)]),
				Value: []byte([]string{"x", "y", "z"}[rng.Intn(3)])}
		}
		return op{kind: "pub", prod: prod, msgs: msgs}
	case r < 40:
		return op{kind: "retry", prod: prod}
	case r < 50:
		return op{kind: "insert", n: int64(4 + rng.Intn(40)), seed: rng.Int63n(1000)}
	case r < 56:
		return op{kind: "query", seed: rng.Int63n(1000)}
	case r < 62:
		return op{kind: "poll"}
	case r < 69 && len(alive) > 1:
		return op{kind: "kill", node: pick(alive)}
	case r < 77 && len(dead) > 0:
		return op{kind: "restart", node: pick(dead)}
	case r < 84:
		return op{kind: "repair"}
	case r < 88:
		from, to := pick(members), pick(members)
		if from != to {
			return op{kind: "cut", node: from + ">" + to}
		}
	case r < 92 && len(cut) > 0:
		return op{kind: "heal", node: pick(cut)}
	case r < 96 && len(alive) > 0:
		o := op{kind: "crash", node: pick(alive), fault: OpReplicate, n: 1 + rng.Int63n(3)}
		if sh.wal {
			o.fault = []string{faults.OpWALAppend, faults.OpWALFsync}[rng.Intn(2)]
			o.log = partitionLog(simTopic, rng.Intn(sh.parts))
			if rng.Intn(3) == 0 {
				o.log = stripeLog(rng.Intn(tsdb.NumStripes))
			}
		}
		return o
	case r < 98 && len(members) < 5:
		s.joined++
		return op{kind: "join", node: fmt.Sprintf("n%d", sh.nodes+s.joined)}
	case len(dead) == 0 && len(cut) == 0 && s.armed() == 0 && len(members) > sh.rf:
		return op{kind: "drain", node: pick(members)}
	}
	return op{kind: "repair"}
}

// stripeHolders names, for each stripe with batches committed since its
// last loss, a member that can still rebuild them: a live one whose lake
// holds exactly the model's stripe, or one whose WAL on disk holds every
// one of those batches in order.
func (s *sim) stripeHolders() (who [tsdb.NumStripes]string) {
	for st := range who {
		if s.m.seqs[st] == s.m.lost[st] {
			continue
		}
		want, err := s.m.lake.ExportStripes([]int{st})
		if err != nil {
			panic(err)
		}
		for _, id := range s.c.Nodes() {
			n := s.c.node(id)
			if n.Alive() {
				if got, err := n.Lake().ExportStripes([]int{st}); err == nil && got.Equal(want) {
					who[st] = id
				}
			}
			if s.onDisk(n, st) {
				who[st] = id + "'s WAL"
			}
		}
	}
	return who
}

// onDisk reports whether n's WAL holds stripe st's batches since its
// last loss on disk, in order. It opens no log that does not exist yet.
func (s *sim) onDisk(n *Node, st int) bool {
	w := n.WAL()
	if w == nil || !w.Has(stripeLog(st)) {
		return false
	}
	l, err := w.Log(stripeLog(st))
	if err != nil {
		return false
	}
	next := s.m.lost[st] + 1
	_, err = l.Replay(func(e wal.Entry) error {
		if e.Kind == wal.KindInsert && e.Seq == next {
			next++
		}
		return nil
	})
	return err == nil && next > s.m.seqs[st]
}

// query compares one query with the model: a down stripe or an unreachable
// replica is an answer the model allows, a different frame is not.
func (s *sim) query(q tsdb.Query) (string, error) {
	got, _, err := s.c.RunWithStats(q)
	if errors.Is(err, ErrStripeDown) || errors.Is(err, ErrNodeDown) || errors.Is(err, ErrLinkDown) {
		return "unavailable", nil
	}
	want, werr := s.m.lake.RunSerial(q)
	if err != nil || werr != nil || !got.Equal(want) {
		return "", fmt.Errorf("query %+v differs from the model (cluster %v, model %v)", q, err, werr)
	}
	return fmt.Sprintf("%d rows", got.Len()), nil
}

// poll makes one plane.Reader pass of 3-record pages: each page is the
// model's records at the reader's cursor, and no cursor moves back.
func (s *sim) poll() (string, error) {
	var bad error
	n, err := s.reader.Poll(context.Background(), 3, func(_ string, p int, recs []stream.Record) error {
		for i, r := range recs {
			if off := s.cursors[p] + int64(i); r.Offset != off || off >= int64(len(s.m.logs[p])) || !sameRecord(r, &s.m.logs[p][off]) {
				bad = fmt.Errorf("a reader page on partition %d at %d is not the model's", p, s.cursors[p])
				return bad
			}
		}
		s.cursors[p] += int64(len(recs))
		return nil
	})
	if bad != nil {
		return "", bad
	}
	for p, off := range s.reader.Offsets()[simTopic] {
		if off != s.cursors[p] {
			return "", fmt.Errorf("reader cursor %d at %d, delivered up to %d", p, off, s.cursors[p])
		}
	}
	return fmt.Sprintf("read %d, %s", n, outcome(err)), nil
}
