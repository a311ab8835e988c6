// Package faults is the chaos counterpart of internal/telemetry's
// data-level pathologies: where telemetry injects loss and skew into the
// *data*, faults injects failures into the *infrastructure* the pipeline
// runs on. A deterministic, seed-driven Injector produces transient
// errors, added latency, partial batch failures, and crash-at-point
// (permanent) faults at configurable per-operation rates.
//
// The seam: every infrastructure surface holds one Hook and fires it,
// with one of the Op constants below, before each guarded step:
//
//	stream.Broker     — OpBrokerFetch, OpBrokerPublish (target: the topic)
//	objstore.Store    — OpStorePut, OpStoreAppend, OpStoreGet, OpStoreHead ("bucket/key")
//	tsdb.DB           — OpLakeInsert (the batch's source)
//	wal.NodeWAL       — OpWALOpen, OpWALAppend, OpWALFsync, OpWALReplay (the stream, or wal.NodeLog)
//	cluster.Transport — OpClusterReplicate … OpClusterResync (the link "from>to")
//
// Each surface's SetFaultHook forwards to its Hook, so Install arms any
// of them. The one contract: a hook fires before the guarded step
// mutates anything, so a caller that retries an injected failure
// re-executes exactly once, and installing or removing a hook is atomic.
//
// Determinism: one seeded PRNG drives every injection decision, guarded
// by a mutex. A single-goroutine workload replays identically for a
// seed; concurrent workloads see the same aggregate fault rates with a
// schedule-dependent interleaving, which is exactly the reproducibility
// contract chaos tests need (retries must mask transients no matter
// *which* operations fail). A hook that keys its decisions by (target,
// per-target count) — fail the k-th fsync of this log — is deterministic
// even under concurrent waves: the cluster simulator in internal/cluster's
// tests arms its WAL crash points that way.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Operation names: the op every surface fires its Hook with.
const (
	OpBrokerFetch      = "broker.fetch"
	OpBrokerPublish    = "broker.publish"
	OpStorePut         = "store.put"
	OpStoreAppend      = "store.append"
	OpStoreGet         = "store.get"
	OpStoreHead        = "store.head" // a version check that reads no data
	OpLakeInsert       = "lake.insert"
	OpWALOpen          = "wal.open"
	OpWALAppend        = "wal.append"
	OpWALFsync         = "wal.fsync"
	OpWALReplay        = "wal.replay"
	OpClusterReplicate = "cluster.replicate" // leader → follower log shipping
	OpClusterFetch     = "cluster.fetch"     // router → leader reads
	OpClusterPublish   = "cluster.publish"   // router → leader appends
	OpClusterInsert    = "cluster.insert"    // router → lake replica inserts
	OpClusterQuery     = "cluster.query"     // router → lake replica stripe scans
	OpClusterResync    = "cluster.resync"    // replica → replica stripe copies
)

// Hook is one surface's fault seam: the installed hook, swapped
// atomically. The zero value fires nothing.
type Hook struct {
	fn atomic.Pointer[func(op, target string) error]
}

// SetFaultHook installs fn, or with nil removes the installed hook.
func (h *Hook) SetFaultHook(fn func(op, target string) error) { h.fn.Store(&fn) }

// Armed reports whether a hook is installed, for a surface whose target
// costs something to build: it builds it only for an armed hook.
func (h *Hook) Armed() bool {
	fn := h.fn.Load()
	return fn != nil && *fn != nil
}

// Fire runs the installed hook for op on target: its error, or nil when
// none is installed or it lets the operation proceed.
func (h *Hook) Fire(op, target string) error {
	if fn := h.fn.Load(); fn != nil && *fn != nil {
		return (*fn)(op, target)
	}
	return nil
}

// InjectedError is the error an Injector produces. Transient faults
// implement resilience's Transient() contract; crash-at-point faults
// are permanent and classified fatal.
type InjectedError struct {
	Op        string
	Target    string
	Permanent bool
}

func (e *InjectedError) Error() string {
	kind := "transient"
	if e.Permanent {
		kind = "permanent"
	}
	return fmt.Sprintf("faults: injected %s fault on %s %s", kind, e.Op, e.Target)
}

// Transient reports whether a retry can mask this fault.
func (e *InjectedError) Transient() bool { return !e.Permanent }

// Rates configures fault injection for one operation.
type Rates struct {
	// Transient is the probability in [0,1] that an operation fails with
	// a retryable InjectedError.
	Transient float64
	// Latency is the probability in [0,1] that LatencyDur of delay is
	// added to an operation (the operation still succeeds).
	Latency    float64
	LatencyDur time.Duration
	// FailAfter, when > 0, makes the Nth matching operation and every
	// one after it fail with a permanent InjectedError — the
	// crash-at-point fault that drives breaker/supervisor tests.
	FailAfter int64
	// Exclude exempts targets containing this substring (e.g. ".dlq" so
	// dead-letter traffic is never faulted away).
	Exclude string
}

// OpStats counts what the injector did to one operation.
type OpStats struct {
	Calls      int64 // hook invocations (after Exclude filtering)
	Transients int64 // transient faults injected
	Permanents int64 // permanent (crash-at-point) faults injected
	Delays     int64 // latency injections
}

type opRule struct {
	rates Rates
	stats OpStats
}

// Injector is a deterministic fault source. Configure per-operation
// Rates with Set, then install it on the infrastructure with Install (or
// pass Before as a hook directly). Safe for concurrent use.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	seed  int64
	rules map[string]*opRule
}

// New returns an injector with no rules: every operation passes until
// Set installs rates.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), seed: seed, rules: make(map[string]*opRule)}
}

// Seed returns the injector's seed (for test failure messages).
func (inj *Injector) Seed() int64 { return inj.seed }

// Set installs (or replaces) the rates for one operation.
func (inj *Injector) Set(op string, r Rates) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.rules[op] = &opRule{rates: r}
}

// Before is the hook body: called with an operation name and its target
// (topic, bucket/key, …) before the operation executes. It returns the
// fault to inject, or nil to let the operation proceed. A latency fault
// sleeps inline and then proceeds.
func (inj *Injector) Before(op, target string) error {
	inj.mu.Lock()
	rule, ok := inj.rules[op]
	if !ok || (rule.rates.Exclude != "" && strings.Contains(target, rule.rates.Exclude)) {
		inj.mu.Unlock()
		return nil
	}
	rule.stats.Calls++
	if rule.rates.FailAfter > 0 && rule.stats.Calls >= rule.rates.FailAfter {
		rule.stats.Permanents++
		inj.mu.Unlock()
		return &InjectedError{Op: op, Target: target, Permanent: true}
	}
	if rule.rates.Transient > 0 && inj.rng.Float64() < rule.rates.Transient {
		rule.stats.Transients++
		inj.mu.Unlock()
		return &InjectedError{Op: op, Target: target}
	}
	var delay time.Duration
	if rule.rates.Latency > 0 && inj.rng.Float64() < rule.rates.Latency {
		rule.stats.Delays++
		delay = rule.rates.LatencyDur
	}
	inj.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return nil
}

// Stats returns per-operation injection counters, keyed by op name.
func (inj *Injector) Stats() map[string]OpStats {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[string]OpStats, len(inj.rules))
	for op, r := range inj.rules {
		out[op] = r.stats
	}
	return out
}

// String summarizes injection activity (ops sorted for stable output).
func (inj *Injector) String() string {
	st := inj.Stats()
	ops := make([]string, 0, len(st))
	for op := range st {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	var b strings.Builder
	fmt.Fprintf(&b, "faults(seed=%d)", inj.seed)
	for _, op := range ops {
		s := st[op]
		fmt.Fprintf(&b, " %s[calls=%d transient=%d permanent=%d delay=%d]",
			op, s.Calls, s.Transients, s.Permanents, s.Delays)
	}
	return b.String()
}

// Install points any component exposing SetFaultHook at this injector,
// arming the operations it guards.
func (inj *Injector) Install(f interface {
	SetFaultHook(func(op, target string) error)
}) {
	f.SetFaultHook(inj.Before)
}
