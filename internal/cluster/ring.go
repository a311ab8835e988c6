// Package cluster turns the single-process LAKE and STREAM tiers into a
// replicated N-node service: a consistent-hash ring places topic
// partitions and tsdb stripes on nodes with replication factor RF,
// partition leaders replicate publishes to followers before committing
// (quorum-acked high watermark), the lake fans InsertBatch out to every
// stripe replica, and a scatter-gather router folds per-stripe query
// partials back together in the engine's fixed stripe order so clustered
// results are byte-identical to a single node. Nodes are in-process
// (each wraps its own broker + tsdb store), the inter-node transport is
// faultable (internal/faults: drop, delay, partition per directed link),
// and failover promotes the most-caught-up live follower — the shape the
// paper's multi-project collector/storage fleets need to lose a node
// without losing the hot tier.
package cluster

import (
	"fmt"
	"sort"
)

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	h    uint64
	node string
}

// Ring is a consistent-hash ring with virtual nodes. Placement walks
// clockwise from a key's hash collecting distinct nodes, so adding or
// removing one node only moves the keys adjacent to its points —
// join/leave rebalances touch a 1/N-ish slice of partitions, not all of
// them.
type Ring struct {
	points []ringPoint // sorted by h
	nodes  map[string]bool
}

// ringVNodes is the ring's virtual-node count per member.
const ringVNodes = 64

// NewRing returns an empty ring.
func NewRing() *Ring { return &Ring{nodes: make(map[string]bool)} }

// fnv64 is FNV-1a, the same hash family the broker and lake stripe on.
func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime64
	}
	return h
}

// Add inserts a node's virtual points. Re-adding is a no-op.
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < ringVNodes; i++ {
		r.points = append(r.points, ringPoint{h: fnv64(fmt.Sprintf("%s#%d", node, i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].h < r.points[j].h })
}

// Remove deletes a node's virtual points.
func (r *Ring) Remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	keep := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			keep = append(keep, p)
		}
	}
	r.points = keep
}

// Nodes returns the sorted member list.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Owners returns up to rf distinct nodes for a key, walking clockwise
// from the key's hash. The first owner is the key's primary.
func (r *Ring) Owners(key string, rf int) []string {
	if len(r.points) == 0 || rf <= 0 {
		return nil
	}
	rf = min(rf, len(r.nodes))
	h := fnv64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	out := make([]string, 0, rf)
	seen := make(map[string]bool, rf)
	for i := 0; i < len(r.points) && len(out) < rf; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
