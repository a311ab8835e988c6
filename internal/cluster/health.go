package cluster

import "odakit/internal/tsdb"

// Health is a point-in-time cluster health summary. Status is "ok" when
// every partition has a live leader and full follower complement and
// every stripe has RF live in-sync replicas; "degraded" while any data
// remains fully served but under-replicated (a dead node, a partition
// awaiting re-replication); "down" only when some partition has no live
// replica or some stripe no live in-sync server — degraded clusters keep
// serving, which is the /healthz contract the chaos suite asserts.
type Health struct {
	Status string `json:"status"` // ok | degraded | down
	Epoch  int64  `json:"epoch"`

	NodesTotal int `json:"nodes_total"`
	NodesAlive int `json:"nodes_alive"`

	Partitions                int `json:"partitions"`
	UnderReplicatedPartitions int `json:"under_replicated_partitions"`
	LeaderlessPartitions      int `json:"leaderless_partitions"`

	Stripes                int `json:"stripes"`
	UnderReplicatedStripes int `json:"under_replicated_stripes"`
	DownStripes            int `json:"down_stripes"`

	Failovers      int64 `json:"failovers_total"`
	Rebalances     int64 `json:"rebalances_total"`
	LakeResyncs    int64 `json:"lake_resyncs_total"`
	QuorumFailures int64 `json:"quorum_failures_total"`
	TruncatedHW    int64 `json:"truncated_records_total"`
	LostInserts    int64 `json:"lost_insert_batches_total"`
}

// Health inspects every partition and stripe and summarizes.
func (c *Cluster) Health() Health {
	h := Health{Status: "ok", Epoch: c.epoch.Load()}
	for _, id := range c.Nodes() {
		h.NodesTotal++
		if n := c.node(id); n != nil && n.Alive() {
			h.NodesAlive++
		}
	}
	rf := min(c.cfg.RF, h.NodesAlive)
	for _, t := range c.topicList() {
		for _, ps := range t.parts {
			h.Partitions++
			ps.mu.Lock()
			replicas := 0
			if n := c.node(ps.leader); n != nil && n.Alive() {
				replicas++
			}
			for _, f := range ps.followers {
				// A follower with no ack yet holds nothing, which is the
				// whole committed prefix of a never-published partition.
				if n := c.node(f); n != nil && n.Alive() && ps.acked[f] >= ps.hw {
					replicas++
				}
			}
			ps.mu.Unlock()
			switch {
			case replicas == 0:
				h.LeaderlessPartitions++
			case replicas < rf:
				h.UnderReplicatedPartitions++
			}
		}
	}
	h.Stripes = tsdb.NumStripes
	var buf [8]string
	for s := 0; s < tsdb.NumStripes; s++ {
		live := len(c.stripeServers(s, true, buf[:0]))
		switch {
		case live == 0:
			h.DownStripes++
		case live < rf:
			h.UnderReplicatedStripes++
		}
	}
	h.Failovers = c.failovers.Load()
	h.Rebalances = c.rebalances.Load()
	h.LakeResyncs = c.lakeResyncs.Load()
	h.QuorumFailures = c.quorumFailures.Load()
	h.TruncatedHW = c.truncatedHW.Load()
	h.LostInserts = c.lostInserts.Load()
	switch {
	case h.LeaderlessPartitions > 0 || h.DownStripes > 0:
		h.Status = "down"
	case h.NodesAlive < h.NodesTotal || h.UnderReplicatedPartitions > 0 || h.UnderReplicatedStripes > 0:
		h.Status = "degraded"
	}
	return h
}
