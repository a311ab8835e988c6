package cluster

// The reference model: what the cluster has committed, kept the dumbest
// way — records as per-partition slices, observations in a single-node
// tsdb.DB that RunSerial answers — and the checks that hold the cluster
// to it after every step of a schedule.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"odakit/internal/stream"
	"odakit/internal/tsdb"
)

type model struct {
	rr   uint64                 // the topic's keyless round-robin cursor
	logs [][]stream.Record      // committed records, per partition (a Ts is zero until read)
	lake *tsdb.DB               // committed observations
	seqs [tsdb.NumStripes]int64 // committed insert batches, per stripe
	lost [tsdb.NumStripes]int64 // seqs at each stripe's last counted loss
}

// route places each message as the cluster's router does: a key by
// stream.KeyPartition, a keyless message on the cursor's next partition.
func (m *model) route(msgs []stream.Message) []int {
	parts := make([]int, len(msgs))
	for i, msg := range msgs {
		if parts[i] = stream.KeyPartition(msg.Key, len(m.logs)); len(msg.Key) == 0 {
			m.rr++
			parts[i] = int(m.rr % uint64(len(m.logs)))
		}
	}
	return parts
}

// applyStep is the model's one rule for a partition's step: the step's
// commit (add) lands at one point among the step's beyond-quorum cuts — a
// failover may cut before a publish stages or after it committed — and
// the order that ends at hw is what the partition holds. It returns that
// log and how many committed records the cuts dropped.
func applyStep(log, add []stream.Record, cuts []hwTrunc, hw int64) ([]stream.Record, int64, bool) {
	for at := 0; at <= len(cuts); at++ {
		l, dropped, ok := log[:len(log):len(log)], int64(0), true
		for i := 0; i <= len(cuts) && ok; i++ {
			if i == at {
				l = append(l, add...)
			}
			if i < len(cuts) {
				off := cuts[i].off
				ok = off <= int64(len(l)) // a cut never grows a log
				dropped += int64(len(l)) - off
				l = l[:min(off, int64(len(l)))]
			}
		}
		if ok && int64(len(l)) == hw {
			return l, dropped, true
		}
	}
	return nil, 0, false
}

// check holds the cluster to the model after a step that committed add:
// every partition read at any page size is the model's log, each
// replica's acked prefix is a prefix of it, hw drops only by what
// Health().TruncatedHW counts, and the lake answers the whole-lake query
// as the model does.
func (s *sim) check(add [][]stream.Record) error {
	c := s.c
	tp, err := c.topic(simTopic)
	if err != nil {
		return err
	}
	var dropped int64
	for p, ps := range tp.parts {
		fetch := func(off int64, max int) ([]stream.Record, error) { return c.AppendRecords(nil, simTopic, p, off, max) }
		got, err := readLog(fetch, math.MaxInt64, 1<<20)
		if err != nil && !errors.Is(err, ErrPartitionDown) {
			return fmt.Errorf("partition %d: %v", p, err)
		}
		hw, _ := c.EndOffset(simTopic, p)
		ps.mu.Lock()
		cuts := ps.truncs[len(s.cuts[p]):]
		s.cuts[p] = ps.truncs
		ps.mu.Unlock()
		want, drop, ok := applyStep(s.m.logs[p], add[p], cuts, hw)
		if !ok {
			return fmt.Errorf("partition %d: hw %d after committing %d onto the model's %d and cutting at %v",
				p, hw, len(add[p]), len(s.m.logs[p]), cuts)
		}
		dropped += drop
		s.m.logs[p], s.hw[p] = want, hw
		if err != nil {
			continue // no live replica: its records are read when one returns
		}
		if err := sameLog(fmt.Sprintf("partition %d", p), got, want, hw); err != nil {
			return err
		}
		if page, err := c.AppendRecords(nil, simTopic, p, 0, 0); err != nil || len(page) != min(len(got), 1024) {
			return fmt.Errorf("partition %d: a default page holds %d of %d records (%v)", p, len(page), len(got), err)
		}
		if _, err := c.AppendRecords(nil, simTopic, p, hw+1, 1); !errors.Is(err, stream.ErrOffsetInFuture) {
			return fmt.Errorf("partition %d: a fetch past hw %d returned %v", p, hw, err)
		}
		if err := s.checkReplicas(ps, want); err != nil {
			return err
		}
	}
	if trunc := c.Health().TruncatedHW - s.last.TruncatedHW; trunc != dropped {
		return fmt.Errorf("%d committed records dropped, the truncation counter rose by %d", dropped, trunc)
	}
	// A stripe may lose the batches committed since its last loss only in
	// a repair, and only when no member held them before it.
	var lost int64
	for st := range s.m.seqs {
		if up := c.lostUpTo[st]; up != s.m.lost[st] {
			if s.holders == nil {
				return fmt.Errorf("stripe %d lost outside a repair", st)
			}
			if who := s.holders[st]; who != "" {
				return fmt.Errorf("stripe %d lost while %s held its batches", st, who)
			}
			lost += s.m.seqs[st] - s.m.lost[st]
			s.m.lost[st] = up
			if err := s.m.lake.DropStripes([]int{st}); err != nil {
				return err
			}
		}
		s.m.seqs[st] = c.stripeSeqs[st].Load()
	}
	if got := c.Health().LostInserts - s.last.LostInserts; got != lost {
		return fmt.Errorf("%d committed insert batches dropped, the loss counter rose by %d", lost, got)
	}
	_, err = s.query(wholeLake)
	return err
}

// checkReplicas holds every replica's acked prefix of a partition (up to
// hw) to the model, and its leader and followers to the membership.
func (s *sim) checkReplicas(ps *partitionState, want []stream.Record) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, id := range append([]string{ps.leader}, ps.followers...) {
		if s.c.node(id) == nil {
			return fmt.Errorf("partition %d is placed on %s, which is no member", ps.idx, id)
		}
	}
	for id, acked := range ps.acked {
		if n := s.c.node(id); n != nil {
			acked = min(acked, int64(len(want)))
			fetch := func(off int64, max int) ([]stream.Record, error) {
				return n.Broker.FetchNoWait(simTopic, ps.idx, off, max)
			}
			got, err := readLog(fetch, acked, 512)
			if err == nil {
				err = sameLog(fmt.Sprintf("partition %d replica %s", ps.idx, id), got, want, acked)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// sameLog requires got to be want's first n records at offsets 0..n-1.
func sameLog(what string, got, want []stream.Record, n int64) error {
	if int64(len(got)) != n {
		return fmt.Errorf("%s: %d records, want %d", what, len(got), n)
	}
	for i, r := range got {
		if r.Offset != int64(i) || !sameRecord(r, &want[i]) {
			return fmt.Errorf("%s offset %d is %s=%s at %v, the model has %s=%s at %v",
				what, i, r.Key, r.Value, r.Ts, want[i].Key, want[i].Value, want[i].Ts)
		}
	}
	return nil
}

// sameRecord matches a read record with the model's. The model learns a
// record's timestamp, which the leader's broker stamps, from the first
// read that shows it; every later read — of any replica, after any
// failover or recovery — must show the same one.
func sameRecord(r stream.Record, m *stream.Record) bool {
	if m.Ts.IsZero() {
		m.Ts = r.Ts
	}
	return string(r.Key) == string(m.Key) && string(r.Value) == string(m.Value) && r.Ts.Equal(m.Ts)
}

// wholeLake is the query every step checks the lake with.
var wholeLake = tsdb.Query{
	From: base, To: base.Add(time.Hour), Granularity: 15 * time.Second, Agg: tsdb.AggSum,
	GroupBy: []string{tsdb.DimComponent, tsdb.DimMetric},
}
