package gateway

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Priority orders tenants at the admission gate. Higher values are
// admitted first when scan slots free up.
type Priority int

// Priorities, lowest to highest.
const (
	PriorityBatch Priority = iota
	PriorityInteractive
	PriorityUrgent
	numPriorities
)

// String names the priority.
func (p Priority) String() string {
	switch p {
	case PriorityBatch:
		return "batch"
	case PriorityInteractive:
		return "interactive"
	case PriorityUrgent:
		return "urgent"
	default:
		return "unknown"
	}
}

// ErrSaturated is returned when the admission wait queue is full — the
// gateway passes the request on shed instead of buffering unbounded
// waiters.
var ErrSaturated = errors.New("gateway: admission queue saturated")

// agingEvery is the anti-starvation cadence: every agingEvery-th grant
// goes to the globally oldest waiter regardless of priority, so a
// steady stream of urgent tenants cannot park batch tenants forever.
const agingEvery = 4

// waiter is one queued admission request.
type waiter struct {
	ch      chan struct{}
	pri     Priority
	seq     uint64
	granted bool
	el      *list.Element
}

// admitter meters concurrent query execution with priority-ordered
// wait queues, and is the one admission decision in front of the LAKE:
// it decides who runs next, so high-priority tenants queue ahead of
// batch, and its full queue is what "overloaded" means. The store's
// scan-helper slots only bound how far a running query fans out; they
// never refuse one. Waiters are cancellable via request context (a
// disconnected client releases its place).
type admitter struct {
	mu     sync.Mutex
	free   int // slots not currently held
	queues [numPriorities]list.List
	queued int
	maxQ   int
	seq    uint64 // arrival stamp for aging
	grants uint64 // grant counter for aging cadence
}

func newAdmitter(slots, maxQueue int) *admitter {
	if slots <= 0 {
		slots = 1
	}
	if maxQueue <= 0 {
		maxQueue = 4 * slots
	}
	return &admitter{free: slots, maxQ: maxQueue}
}

// Acquire blocks until a slot is granted, the context is cancelled, or
// the wait queue is full (ErrSaturated, immediately). A nil error means
// the caller holds a slot and must Release it.
func (a *admitter) Acquire(ctx context.Context, pri Priority) error {
	if pri < 0 {
		pri = 0
	}
	if pri >= numPriorities {
		pri = numPriorities - 1
	}
	a.mu.Lock()
	if a.free > 0 && a.queued == 0 {
		a.free--
		a.mu.Unlock()
		return nil
	}
	if a.queued >= a.maxQ {
		a.mu.Unlock()
		return ErrSaturated
	}
	w := &waiter{ch: make(chan struct{}), pri: pri, seq: a.seq}
	a.seq++
	w.el = a.queues[pri].PushBack(w)
	a.queued++
	// A free slot with a non-empty queue can only happen transiently
	// (Release raced our enqueue); hand it to the front of the line.
	if a.free > 0 {
		a.grantLocked()
	}
	a.mu.Unlock()

	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// Grant raced the cancellation: we own a slot nobody will
			// use. Pass it on.
			a.releaseLocked()
		} else {
			a.queues[w.pri].Remove(w.el)
			a.queued--
		}
		a.mu.Unlock()
		return ctx.Err()
	}
}

// Release returns a slot, waking the next waiter if any.
func (a *admitter) Release() {
	a.mu.Lock()
	a.releaseLocked()
	a.mu.Unlock()
}

func (a *admitter) releaseLocked() {
	a.free++
	if a.queued > 0 {
		a.grantLocked()
	}
}

// grantLocked pops the next waiter — normally the highest non-empty
// priority, but every agingEvery-th grant goes to the globally oldest
// waiter so low-priority tenants keep progressing under sustained
// high-priority load.
func (a *admitter) grantLocked() {
	var el *list.Element
	var q *list.List
	a.grants++
	if a.grants%agingEvery == 0 {
		oldest := ^uint64(0)
		for i := range a.queues {
			if front := a.queues[i].Front(); front != nil {
				if w := front.Value.(*waiter); w.seq <= oldest {
					oldest, el, q = w.seq, front, &a.queues[i]
				}
			}
		}
	} else {
		for i := int(numPriorities) - 1; i >= 0; i-- {
			if front := a.queues[i].Front(); front != nil {
				el, q = front, &a.queues[i]
				break
			}
		}
	}
	if el == nil {
		return
	}
	w := q.Remove(el).(*waiter)
	a.queued--
	a.free--
	w.granted = true
	close(w.ch)
}

// Queued reports the current wait-queue depth (scrape-time gauge).
func (a *admitter) Queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued
}
