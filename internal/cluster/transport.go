package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"odakit/internal/faults"
)

// Transport operation names, as faults names them. Targets are the
// directed link "from>to", so faults.Rates.Exclude can exempt links.
const (
	OpReplicate = faults.OpClusterReplicate
	OpFetch     = faults.OpClusterFetch
	OpPublish   = faults.OpClusterPublish
	OpInsert    = faults.OpClusterInsert
	OpQuery     = faults.OpClusterQuery
	OpResync    = faults.OpClusterResync
)

// ErrLinkDown reports a message dropped by an administratively
// partitioned link. It is transient: healing the partition makes the
// same call succeed.
var ErrLinkDown = errors.New("cluster: link partitioned")

// linkError carries the failed link and classifies as transient for
// resilience.IsTransient.
type linkError struct{ from, to string }

func (e *linkError) Error() string {
	return fmt.Sprintf("%v: %s>%s", ErrLinkDown, e.from, e.to)
}
func (e *linkError) Unwrap() error   { return ErrLinkDown }
func (e *linkError) Transient() bool { return true }

// Transport is the in-process inter-node message plane. Every
// cross-node call passes through it so the chaos suite can drop, delay,
// or partition any directed link: PartitionLink blocks one direction
// (asymmetric partitions are a first-class failure), and an installed
// fault hook (faults.Injector.Before) injects probabilistic faults.
type Transport struct {
	mu      sync.RWMutex
	blocked map[string]bool // directed "from>to" links
	faults  faults.Hook     // fired before every call a partition lets through

	calls   atomic.Int64
	dropped atomic.Int64
}

func newTransport() *Transport {
	return &Transport{blocked: make(map[string]bool)}
}

// SetFaultHook installs (or, with nil, removes) the fault-injection hook.
func (tr *Transport) SetFaultHook(h func(op, target string) error) { tr.faults.SetFaultHook(h) }

// PartitionLink blocks the directed link from→to. Block both directions
// for a symmetric partition; one for an asymmetric one.
func (tr *Transport) PartitionLink(from, to string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.blocked[from+">"+to] = true
}

// HealLink unblocks one directed link.
func (tr *Transport) HealLink(from, to string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	delete(tr.blocked, from+">"+to)
}

// Stats returns total calls and drops (partitioned or faulted).
func (tr *Transport) Stats() (calls, dropped int64) {
	return tr.calls.Load(), tr.dropped.Load()
}

// call gates one directed inter-node message. It returns the fault to
// inject, or nil to let the operation proceed.
func (tr *Transport) call(op, from, to string) error {
	tr.calls.Add(1)
	tr.mu.RLock()
	blocked := tr.blocked[from+">"+to]
	tr.mu.RUnlock()
	if blocked {
		tr.dropped.Add(1)
		return &linkError{from: from, to: to}
	}
	// A hook may keep its target, which puts the link string on the heap:
	// build it only when a hook is installed.
	if !tr.faults.Armed() {
		return nil
	}
	if err := tr.faults.Fire(op, from+">"+to); err != nil {
		tr.dropped.Add(1)
		return err
	}
	return nil
}
