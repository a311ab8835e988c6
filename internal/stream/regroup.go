package stream

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Regroup splits a batch by destination — a topic's partitions, the
// lake's stripes — with one counting sort into one reused buffer, where
// appending each item to its destination's own slice re-grew N slices
// from nil on every batch. Relative order inside a group is batch order.
// A batch whose items all share one group is not copied at all: Group
// hands back the caller's slice. The zero value is ready; pool it, and
// Clear it first — nothing a Group returns may outlive that.
type Regroup[T any] struct {
	items []T     // the batch in group-major order: buf, or the caller's slice
	ends  []int   // ends[g] is where group g's run of items ends
	group []int32 // scratch: each item's group
	buf   []T     // scratch behind items; its length is what the last batch used
}

// Sort regroups items into groups runs; groupOf is called once per item,
// in batch order.
func (r *Regroup[T]) Sort(items []T, groups int, groupOf func(*T) int) {
	r.ends = slices.Grow(r.ends[:0], groups)[:groups]
	clear(r.ends)
	r.group = slices.Grow(r.group[:0], len(items))[:len(items)]
	for i := range items {
		g := groupOf(&items[i])
		r.group[i] = int32(g)
		r.ends[g]++
	}
	r.items, r.buf = items, r.buf[:0]
	if len(items) == 0 {
		return
	}
	first := r.group[0]
	single := r.ends[first] == len(items)
	acc := 0
	for g, n := range r.ends {
		r.ends[g] = acc // the group's start; placing its items moves it to the end
		acc += n
	}
	if single {
		r.ends[first] = len(items)
		return
	}
	r.buf = slices.Grow(r.buf, len(items))[:len(items)]
	r.items = r.buf
	for i := range items {
		g := r.group[i]
		r.items[r.ends[g]] = items[i]
		r.ends[g]++
	}
}

// Group returns group g's items in batch order.
func (r *Regroup[T]) Group(g int) []T {
	start := 0
	if g > 0 {
		start = r.ends[g-1]
	}
	return r.items[start:r.ends[g]]
}

// Clear drops every reference to the last batch, so a pooled Regroup
// pins no caller's buffers and can show no later batch another's items.
func (r *Regroup[T]) Clear() {
	clear(r.buf)
	r.items = nil
}

// route picks a message's partition: KeyPartition when keyed, the topic's
// round-robin cursor rr when keyless.
func route(rr *atomic.Uint64, key []byte, parts int) int {
	if len(key) == 0 {
		return int(rr.Add(1) % uint64(parts))
	}
	return KeyPartition(key, parts)
}

var batchRegroups = sync.Pool{New: func() any { return new(Regroup[Message]) }}

// RouteBatch regroups msgs by partition, each message where route places
// it, in batch order. Hand the result to ReleaseBatch once no sub-batch is
// in use any more.
func RouteBatch(rr *atomic.Uint64, msgs []Message, parts int) *Regroup[Message] {
	r := batchRegroups.Get().(*Regroup[Message])
	r.Sort(msgs, parts, func(m *Message) int { return route(rr, m.Key, parts) })
	return r
}

// ReleaseBatch returns a RouteBatch result to the pool.
func ReleaseBatch(r *Regroup[Message]) {
	r.Clear()
	batchRegroups.Put(r)
}
