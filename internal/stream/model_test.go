package stream

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// modelLog is the reference a partition is checked against: the live
// records as a plain slice, every rule applied one record at a time.
type modelLog struct {
	topic   string
	part    int
	cfg     TopicConfig
	recs    []Record
	horizon int64
	next    int64
	total   int64
}

func (m *modelLog) bytes() (n int64) {
	for _, r := range m.recs {
		n += r.size()
	}
	return n
}

func (m *modelLog) push(off int64, ts time.Time, key, value []byte) {
	m.recs = append(m.recs, Record{
		Offset: off, Ts: ts,
		Key: bytes.Clone(key), Value: bytes.Clone(value),
	})
	m.next = off + 1
	m.total++
}

func (m *modelLog) append(ts time.Time, msgs []Message) {
	if len(msgs) == 0 {
		return
	}
	for _, msg := range msgs {
		m.push(m.next, ts, msg.Key, msg.Value)
	}
	m.retain()
}

func (m *modelLog) replicate(recs []Record) {
	appended := false
	for _, r := range recs {
		if r.Offset < m.next {
			continue
		}
		if len(m.recs) == 0 {
			m.horizon = r.Offset
		}
		m.push(r.Offset, r.Ts, r.Key, r.Value)
		appended = true
	}
	if appended {
		m.retain()
	}
}

// truncate drops every record at or past off, newest first.
func (m *modelLog) truncate(off int64) {
	if off >= m.next {
		return
	}
	for len(m.recs) > 0 && m.recs[len(m.recs)-1].Offset >= off {
		m.recs = m.recs[:len(m.recs)-1]
	}
	m.next = off
	m.horizon = min(m.horizon, off)
}

func (m *modelLog) retain() {
	for len(m.recs) > 1 && m.cfg.RetentionBytes > 0 && m.bytes() > m.cfg.RetentionBytes {
		m.recs = m.recs[1:]
		m.horizon = m.recs[0].Offset
	}
}

func (m *modelLog) fetch(off int64, max int) ([]Record, error) {
	if off < m.horizon {
		return nil, ErrOffsetTrimmed
	}
	if off > m.next {
		return nil, ErrOffsetInFuture
	}
	if max <= 0 {
		max = 1024
	}
	var out []Record
	for _, r := range m.recs {
		if r.Offset >= off && len(out) < max {
			out = append(out, r)
		}
	}
	return out, nil
}

// has reports whether the model retains a record at off.
func (m *modelLog) has(off int64) bool {
	for _, r := range m.recs {
		if r.Offset == off {
			return true
		}
	}
	return false
}

func sameRecords(got, want []Record) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Offset != w.Offset || !g.Ts.Equal(w.Ts) ||
			!bytes.Equal(g.Key, w.Key) || !bytes.Equal(g.Value, w.Value) {
			return fmt.Errorf("record %d = @%d %s %q=%q, want @%d %s %q=%q", i,
				g.Offset, g.Ts, g.Key, g.Value, w.Offset, w.Ts, w.Key, w.Value)
		}
	}
	return nil
}

// modelRun drives one broker and its models through a seeded schedule.
type modelRun struct {
	t     *testing.T
	rng   *rand.Rand
	b     *Broker
	names []string
	logs  map[string][]*modelLog
	// leader is the synthetic leader log the "repl" topic is shipped from,
	// stamped by its own clock leaderNow.
	leader    []Record
	leaderNow time.Time
	// held are fetched records kept across later trims, with deep copies
	// taken at fetch time.
	held, heldCopy []Record
	// hits counts the situations the schedule must reach; the test fails
	// on any that stays zero, so a case cannot silently stop being run.
	hits map[string]int
}

var modelTopics = map[string]TopicConfig{
	"plain": {Partitions: 2},
	"bytes": {Partitions: 2, RetentionBytes: 3000},
	"tight": {Partitions: 1, RetentionBytes: 700},
	"repl":  {Partitions: 1, RetentionBytes: 2500},
}

func (r *modelRun) create(name string) {
	cfg := modelTopics[name]
	if err := r.b.CreateTopic(name, cfg); err != nil {
		r.t.Fatal(err)
	}
	logs := make([]*modelLog, cfg.Partitions)
	for p := range logs {
		logs[p] = &modelLog{topic: name, part: p, cfg: cfg}
	}
	r.logs[name] = logs
}

func (r *modelRun) part(name string, p int) *partition {
	t, err := r.b.topic(name)
	if err != nil {
		r.t.Fatal(err)
	}
	return t.parts[p]
}

// stamped returns the timestamp the broker gave the batch it just appended
// to name/p — its newest record's, which retention never trims — after
// checking it is the wall clock of the publish call, taken between start
// and now.
func (r *modelRun) stamped(name string, p int, start time.Time) time.Time {
	end, err := r.b.EndOffset(name, p)
	if err != nil {
		r.t.Fatal(err)
	}
	recs, err := r.b.FetchNoWait(name, p, end-1, 1)
	if err != nil || len(recs) != 1 {
		r.t.Fatalf("%s/%d: newest record: %d records, %v", name, p, len(recs), err)
	}
	if ts := recs[0].Ts; ts.Before(start) || ts.After(time.Now()) {
		r.t.Fatalf("%s/%d: batch stamped %s, published after %s", name, p, ts, start)
	}
	return recs[0].Ts
}

// msgs builds n messages: keys from a small set (some empty), values of
// mixed sizes up to valueMax.
func (r *modelRun) msgs(n, valueMax int) []Message {
	out := make([]Message, n)
	for i := range out {
		if r.rng.Intn(4) > 0 {
			out[i].Key = []byte(fmt.Sprintf("k%d", r.rng.Intn(6)))
		}
		v := make([]byte, r.rng.Intn(valueMax+1))
		r.rng.Read(v)
		out[i].Value = v
	}
	return out
}

// scribble overwrites the caller's buffers after a publish or a ship: the
// log must hold its own copy.
func scribble(bufs ...[]byte) {
	for _, b := range bufs {
		for i := range b {
			b[i] = 0xEE
		}
	}
}

func (r *modelRun) publish(name string) {
	logs := r.logs[name]
	p := r.rng.Intn(len(logs))
	var msgs []Message
	switch k := r.rng.Intn(10); {
	case k < 3:
		msgs = r.msgs(1, 80)
	case k < 9:
		msgs = r.msgs(1+r.rng.Intn(24), 120)
	default:
		msgs = r.msgs(0, 0)
	}
	before, start := r.part(name, p).nq, time.Now()
	var err error
	if len(logs) == 1 {
		_, err = r.b.PublishBatch(name, msgs)
	} else {
		_, err = r.b.PublishBatchTo(name, p, msgs)
	}
	if err != nil {
		r.t.Fatalf("publish %s/%d: %v", name, p, err)
	}
	if len(msgs) > 0 {
		logs[p].append(r.stamped(name, p, start), msgs)
	}
	for _, m := range msgs {
		scribble(m.Key, m.Value)
	}
	if len(msgs) > 1 && r.part(name, p).nq > before+1 {
		r.t.Fatalf("%s/%d: a %d-message batch under the bound queued %d chunks", name, p, len(msgs), r.part(name, p).nq-before)
	}
}

// publishHuge appends one batch that accounts for more than chunkMaxBytes
// to the unbounded topic, so it has to split.
func (r *modelRun) publishHuge() {
	const name = "plain"
	msgs := r.msgs(40, 0)
	for i := range msgs {
		msgs[i].Value = bytes.Repeat([]byte{byte(i)}, 30<<10+r.rng.Intn(4<<10))
	}
	p := r.part(name, 0)
	before, start := p.nq, time.Now()
	if _, err := r.b.PublishBatchTo(name, 0, msgs); err != nil {
		r.t.Fatal(err)
	}
	r.logs[name][0].append(r.stamped(name, 0, start), msgs)
	for _, m := range msgs {
		scribble(m.Key, m.Value)
	}
	if p.nq < before+2 {
		r.t.Fatalf("a batch over the chunk bound queued %d chunk(s)", p.nq-before)
	}
	for i := before; i < p.nq; i++ {
		if c := p.chunkAt(i); int64(len(c.data))+32*int64(c.records()) > chunkMaxBytes {
			r.t.Fatalf("chunk %d accounts for %d bytes, bound %d", i, len(c.data)+32*c.records(), chunkMaxBytes)
		}
	}
	r.hits["batch split at the chunk bound"]++
}

// ship replicates a slice of the synthetic leader log into "repl": the
// next records, a re-delivered prefix, or a jump past a retention gap —
// which, while the log holds records, leaves a hole in its offsets.
func (r *modelRun) ship() {
	const name = "repl"
	m := r.logs[name][0]
	start := m.next
	switch k := r.rng.Intn(10); {
	case k < 4 && start > 0:
		start -= min(start, int64(1+r.rng.Intn(6)))
	case k == 9:
		start += int64(1 + r.rng.Intn(5))
	}
	end := start + int64(1+r.rng.Intn(20))
	for int64(len(r.leader)) < end {
		// The leader appended in batches of 1-6 records sharing a timestamp.
		r.leaderNow = r.leaderNow.Add(time.Duration(1+r.rng.Intn(3000)) * time.Millisecond)
		ts := r.leaderNow
		for _, msg := range r.msgs(1+r.rng.Intn(6), 100) {
			r.leader = append(r.leader, Record{Offset: int64(len(r.leader)), Ts: ts, Key: msg.Key, Value: msg.Value})
		}
	}
	recs := make([]Record, end-start)
	for i := range recs {
		l := r.leader[start+int64(i)]
		recs[i] = Record{Offset: l.Offset, Ts: l.Ts, Key: bytes.Clone(l.Key), Value: bytes.Clone(l.Value)}
	}
	switch {
	case start < m.next && end > m.next:
		r.hits["replicate with a re-delivered prefix"]++
	case end <= m.next:
		r.hits["replicate of nothing new"]++
	case start > m.next:
		r.hits["replicate across a retention gap"]++
	}
	if recs[0].Ts != recs[len(recs)-1].Ts {
		r.hits["replicate with mixed timestamps"]++
	}
	if err := r.b.ReplicateBatch(name, 0, recs); err != nil {
		r.t.Fatal(err)
	}
	m.replicate(recs)
	for _, rec := range recs {
		scribble(rec.Key, rec.Value)
	}
}

// truncate cuts a random partition of name back to a random offset: most
// often among its live records, sometimes at its end or below its
// horizon. "repl"'s synthetic leader is cut with it, so the next ship
// carries new content at the offsets the cut freed.
func (r *modelRun) truncate(name string) {
	logs := r.logs[name]
	pi := r.rng.Intn(len(logs))
	m, p := logs[pi], r.part(name, pi)
	var off int64
	switch k := r.rng.Intn(10); {
	case k == 0:
		off = max(0, m.horizon-1-r.rng.Int63n(3))
	case k == 1:
		off = m.next
	default:
		off = m.horizon + r.rng.Int63n(m.next-m.horizon+1)
	}
	for i := 0; i < p.nq; i++ {
		if c := p.chunkAt(i); off > c.base+int64(c.lo) && off < c.base+int64(c.records()) {
			r.hits["truncate inside a chunk"]++
			if i == 0 && c.lo > 0 {
				r.hits["truncate inside a head chunk with a trimmed front"]++
			}
		}
	}
	for o := max(off, m.horizon); o < m.next; o++ {
		if !m.has(o) {
			r.hits["truncate across a replication hole"]++
			break
		}
	}
	before := p.nq
	if err := r.b.TruncateTo(name, pi, off); err != nil {
		r.t.Fatalf("truncate %s/%d at %d: %v", name, pi, off, err)
	}
	m.truncate(off)
	if p.nq < before {
		r.hits["truncate dropping whole chunks"]++
	}
	if name == "repl" && int64(len(r.leader)) > off {
		r.leader = r.leader[:off]
	}
}

// readyAt parks on name/p past off and reports whether the channel is
// already closed.
func (r *modelRun) readyAt(name string, p int, off int64) (<-chan struct{}, bool) {
	ch, err := r.b.Ready(name, p, off)
	if err != nil {
		r.t.Fatalf("Ready(%s/%d, %d): %v", name, p, off, err)
	}
	return ch, isClosed(ch)
}

// deleteAndRecreate drops a topic under a parked reader, whose next fetch
// must see ErrNoTopic, and brings it back empty.
func (r *modelRun) deleteAndRecreate(name string) {
	p := r.part(name, 0)
	end := r.logs[name][0].next
	ch, fired := r.readyAt(name, 0, end)
	if fired {
		r.t.Fatalf("%s: Ready at the end of the log fired before DeleteTopic", name)
	}
	if err := r.b.DeleteTopic(name); err != nil {
		r.t.Fatal(err)
	}
	if !isClosed(ch) {
		r.t.Fatalf("%s: a reader parked across DeleteTopic was not woken", name)
	}
	r.hits["parked Ready woken by DeleteTopic"]++
	if _, err := p.appendNoWait(nil, 0, 1); !errors.Is(err, ErrNoTopic) {
		r.t.Fatalf("fetch on a deleted partition = %v, want ErrNoTopic", err)
	}
	if _, err := r.b.FetchNoWait(name, 0, end, 4); !errors.Is(err, ErrNoTopic) {
		r.t.Fatalf("fetch on a deleted topic = %v, want ErrNoTopic", err)
	}
	if _, err := r.b.Ready(name, 0, end); !errors.Is(err, ErrNoTopic) {
		r.t.Fatalf("Ready on a deleted topic = %v, want ErrNoTopic", err)
	}
	r.create(name)
	r.hits["topic deleted and recreated"]++
}

// wake parks at the end of a log and checks that an append releases it and
// what the fetch after the wake hands back.
func (r *modelRun) wake(name string) {
	m := r.logs[name][0]
	end := m.next
	ch, fired := r.readyAt(name, 0, end)
	if fired {
		r.t.Fatalf("%s: Ready at the end of the log fired before the append", name)
	}
	msgs, start := r.msgs(1+r.rng.Intn(5), 60), time.Now()
	if _, err := r.b.PublishBatchTo(name, 0, msgs); err != nil {
		r.t.Fatal(err)
	}
	m.append(r.stamped(name, 0, start), msgs)
	if !isClosed(ch) {
		r.t.Fatalf("%s: a %d-message append did not wake the reader parked at %d", name, len(msgs), end)
	}
	got, err := r.b.FetchNoWait(name, 0, end, 3)
	want, werr := m.fetch(end, 3)
	if !errors.Is(err, werr) {
		r.t.Fatalf("%s: woken fetch at %d: %v, model %v", name, end, err, werr)
	}
	if err := sameRecords(got, want); err != nil {
		r.t.Fatalf("%s: woken fetch at %d: %v", name, end, err)
	}
	r.hits["parked Ready woken by an append"]++
}

// check compares every observable of every partition with its model.
func (r *modelRun) check(step string) {
	t := r.t
	for _, name := range r.names {
		logs := r.logs[name]
		var records, byts, total int64
		for pi, m := range logs {
			where := fmt.Sprintf("%s: %s/%d", step, name, pi)
			if got, err := r.b.OldestOffset(name, pi); err != nil || got != m.horizon {
				t.Fatalf("%s: OldestOffset = %d, %v; model %d", where, got, err, m.horizon)
			}
			if got, err := r.b.EndOffset(name, pi); err != nil || got != m.next {
				t.Fatalf("%s: EndOffset = %d, %v; model %d", where, got, err, m.next)
			}
			records += int64(len(m.recs))
			byts += m.bytes()
			total += m.total
			for i, off := range r.offsets(name, pi, m) {
				r.checkFetch(where, name, pi, m, off, 1)
				r.checkFetch(where, name, pi, m, off, 3)
				if i < 12 { // whole-log pages only around the horizon, the end and the oldest chunk
					r.checkFetch(where, name, pi, m, off, 1024)
				}
			}
			r.checkFetch(where, name, pi, m, m.horizon, 0)
		}
		s, err := r.b.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Records != records || s.Bytes != byts || s.TotalRecords != total {
			t.Fatalf("%s: %s stats records %d bytes %d total %d; model %d %d %d",
				step, name, s.Records, s.Bytes, s.TotalRecords, records, byts, total)
		}
	}
	for i, h := range r.held {
		if err := sameRecords([]Record{h}, r.heldCopy[i:i+1]); err != nil {
			t.Fatalf("%s: a record fetched earlier changed under the caller: %v", step, err)
		}
	}
}

// offsets lists what to fetch at: every class around the horizon and the
// end; the edges and the middle of the oldest, the newest and a few other
// chunks; offset holes; and — on a short log — simply every offset.
func (r *modelRun) offsets(name string, pi int, m *modelLog) []int64 {
	offs := []int64{m.horizon - 1, m.horizon, m.next - 1, m.next, m.next + 1, m.next + 100}
	p := r.part(name, pi)
	if p.nq > 0 {
		if c := p.chunkAt(0); c.lo > 0 && c.lo < c.records() {
			r.hits["horizon inside a partially trimmed chunk"]++
		}
		for _, i := range []int{0, p.nq - 1, r.rng.Intn(p.nq), r.rng.Intn(p.nq), r.rng.Intn(p.nq)} {
			c := p.chunkAt(i)
			n := int64(c.records())
			offs = append(offs, c.base-1, c.base, c.base+1, c.base+n/2, c.base+n-1, c.base+n)
		}
	}
	holes := 0
	for off := m.horizon; off < m.next; off++ {
		if hole := !m.has(off); m.next-m.horizon <= 48 || hole && holes < 16 {
			offs = append(offs, off)
			if hole {
				holes++
			}
		}
	}
	return offs
}

func (r *modelRun) checkFetch(where, name string, pi int, m *modelLog, off int64, max int) {
	if off < 0 {
		return
	}
	want, werr := m.fetch(off, max)
	got, err := r.b.FetchNoWait(name, pi, off, max)
	if !errors.Is(err, werr) {
		r.t.Fatalf("%s: FetchNoWait(%d, %d) = %v, model %v", where, off, max, err, werr)
	}
	if err := sameRecords(got, want); err != nil {
		r.t.Fatalf("%s: FetchNoWait(%d, %d): %v", where, off, max, err)
	}
	// A reader parked at off is released exactly when the log ends past it.
	if _, fired := r.readyAt(name, pi, off); fired != (m.next > off) {
		r.t.Fatalf("%s: Ready(%d) fired = %v with the log ending at %d", where, off, fired, m.next)
	}
	if len(want) == 0 {
		return
	}
	for _, g := range got {
		if cap(g.Key) != len(g.Key) || cap(g.Value) != len(g.Value) {
			r.t.Fatalf("%s: record @%d leaves append room into its arena (key cap %d len %d, value cap %d len %d)",
				where, g.Offset, cap(g.Key), len(g.Key), cap(g.Value), len(g.Value))
		}
	}
	switch first := want[0].Offset; {
	case first > off:
		if name != "repl" {
			r.t.Fatalf("%s: a hole at %d in a log nothing was replicated into", where, off)
		}
		r.hits["fetch starting inside an adopted replication gap"]++
	default:
		p := r.part(name, pi)
		for i := 0; i < p.nq; i++ {
			if c := p.chunkAt(i); off > c.base && off < c.base+int64(c.records()) {
				r.hits["fetch starting inside a chunk"]++
			}
		}
	}
	if len(r.held) < 96 && r.rng.Intn(4000) == 0 {
		for _, g := range got[:min(len(got), 3)] {
			r.held = append(r.held, g)
			r.heldCopy = append(r.heldCopy, Record{Offset: g.Offset, Ts: g.Ts,
				Key: bytes.Clone(g.Key), Value: bytes.Clone(g.Value)})
		}
	}
}

// TestPartitionMatchesModel drives seeded schedules of every way a log
// is written — batches of mixed sizes from one record to one over the
// chunk bound, replication with re-delivered prefixes, gaps and mixed
// timestamps, byte retention, truncation of a suffix, topic deletion and
// an append each waking a reader parked on Ready — and after every step
// compares every read of every partition with a []Record model, whose
// publish timestamps are the ones the broker stamped.
func TestPartitionMatchesModel(t *testing.T) {
	hits := map[string]int{}
	for seed := int64(1); seed <= 3; seed++ {
		r := &modelRun{
			t: t, rng: rand.New(rand.NewSource(seed)), b: NewBroker(),
			names:     []string{"plain", "bytes", "tight", "repl"},
			leaderNow: time.Unix(1_700_000_000, 0).UTC(),
			logs:      map[string][]*modelLog{}, hits: hits,
		}
		names := r.names
		for _, name := range names {
			r.create(name)
		}
		for step := 0; step < 200; step++ {
			name := names[r.rng.Intn(len(names)-1)] // "repl" is written by ship alone
			what := "publish " + name
			switch k := r.rng.Intn(20); {
			case step == 180: // late: every later check compares its 1.3 MB again
				what = "publish over the chunk bound"
				r.publishHuge()
			case k < 5:
				what = "ship"
				r.ship()
			case k == 5:
				what = "wake " + name
				r.wake(name)
			case k == 6 && step%4 == 0:
				what = "delete " + name
				r.deleteAndRecreate(name)
			case k == 7 || k == 8:
				if k == 8 {
					name = "repl" // the one log with replication holes
				}
				what = "truncate " + name
				r.truncate(name)
			default:
				r.publish(name)
			}
			r.check(fmt.Sprintf("seed %d step %d (%s)", seed, step, what))
		}
		if len(r.held) == 0 {
			t.Fatalf("seed %d: no fetched record was held across later trims", seed)
		}
		// A caller appending to a record it was handed long ago reaches
		// neither the log nor a neighbour.
		for i := range r.held {
			r.held[i].Key = append(r.held[i].Key, "tail"...)
			r.held[i].Value = append(r.held[i].Value, "tail"...)
		}
		r.held, r.heldCopy = nil, nil
		r.check(fmt.Sprintf("seed %d after appending to held records", seed))
		r.b.Close()
	}
	for _, want := range []string{
		"batch split at the chunk bound",
		"horizon inside a partially trimmed chunk",
		"fetch starting inside a chunk",
		"fetch starting inside an adopted replication gap",
		"replicate with a re-delivered prefix",
		"replicate of nothing new",
		"replicate across a retention gap",
		"replicate with mixed timestamps",
		"parked Ready woken by an append",
		"parked Ready woken by DeleteTopic",
		"topic deleted and recreated",
		"truncate inside a chunk",
		"truncate inside a head chunk with a trimmed front",
		"truncate dropping whole chunks",
		"truncate across a replication hole",
	} {
		if hits[want] == 0 {
			t.Errorf("the schedules never reached: %s", want)
		}
	}
	t.Logf("reached: %v", hits)
}
