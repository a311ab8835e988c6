package viz

import (
	"fmt"
	"strings"

	"odakit/internal/cluster"
)

// ClusterPanel renders a cluster health snapshot as a compact terminal
// panel — the operator's view of the replication state that /healthz
// serves as JSON. Fully-replicated rows print bare; anything short of
// full replication is flagged so a degraded cluster is visible at a
// glance, and the lifetime counters (failovers, rebalances, resyncs)
// tell the incident history.
func ClusterPanel(h cluster.Health) string {
	var b strings.Builder
	glyph := "?"
	switch h.Status {
	case "ok":
		glyph = "●"
	case "degraded":
		glyph = "◐"
	case "down":
		glyph = "○"
	}
	fmt.Fprintf(&b, "== Cluster %s %s (epoch %d) ==\n", glyph, h.Status, h.Epoch)
	// Node bar: one dot per member, filled while alive.
	bar := strings.Repeat("●", h.NodesAlive) + strings.Repeat("○", h.NodesTotal-h.NodesAlive)
	fmt.Fprintf(&b, "  %-28s %d/%d %s\n", "nodes alive", h.NodesAlive, h.NodesTotal, bar)

	flag := func(n int) string {
		if n > 0 {
			return "  !" // draws the eye on a terminal full of zeros
		}
		return ""
	}
	fmt.Fprintf(&b, "  %-28s %d\n", "partitions", h.Partitions)
	fmt.Fprintf(&b, "  %-28s %d%s\n", "  under-replicated", h.UnderReplicatedPartitions, flag(h.UnderReplicatedPartitions))
	fmt.Fprintf(&b, "  %-28s %d%s\n", "  leaderless", h.LeaderlessPartitions, flag(h.LeaderlessPartitions))
	fmt.Fprintf(&b, "  %-28s %d\n", "lake stripes", h.Stripes)
	fmt.Fprintf(&b, "  %-28s %d%s\n", "  under-replicated", h.UnderReplicatedStripes, flag(h.UnderReplicatedStripes))
	fmt.Fprintf(&b, "  %-28s %d%s\n", "  down", h.DownStripes, flag(h.DownStripes))
	fmt.Fprintf(&b, "  %-28s %d\n", "failovers", h.Failovers)
	fmt.Fprintf(&b, "  %-28s %d\n", "rebalances", h.Rebalances)
	fmt.Fprintf(&b, "  %-28s %d\n", "lake resyncs", h.LakeResyncs)
	fmt.Fprintf(&b, "  %-28s %d\n", "quorum failures", h.QuorumFailures)
	fmt.Fprintf(&b, "  %-28s %d\n", "truncated records", h.TruncatedHW)
	fmt.Fprintf(&b, "  %-28s %d\n", "lost insert batches", h.LostInserts)
	return b.String()
}
