// Package archive implements the GLACIER tier (Fig 5): simulated tape
// cold storage. Writes ("freezes") are immediate; reads require an
// explicit recall that completes after a simulated mount/seek latency,
// modelling why Bronze datasets parked here are cheap to keep but slow to
// touch — "very little value in serving unrefined data sets in hotter
// tiers until upstream pipelines are developed" (§VI-B).
package archive

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Errors returned by the archive.
var (
	ErrNoItem      = errors.New("archive: no such item")
	ErrNotRecalled = errors.New("archive: item not recalled; call Recall and wait for ready time")
	ErrRecallAgain = errors.New("archive: recall still in progress")
)

// ItemInfo describes one archived item.
type ItemInfo struct {
	Key      string
	Size     int64
	Frozen   time.Time
	Recalled bool // a completed recall keeps the item staged
}

type item struct {
	data       []byte
	frozen     time.Time
	recallDone time.Time // zero = never recalled
}

// Archive is the cold tier. Safe for concurrent use.
type Archive struct {
	mu    sync.Mutex
	items map[string]*item
	now   func() time.Time

	// RecallLatency is the simulated tape mount+seek+read delay per
	// recall (default 4h of simulated time).
	RecallLatency time.Duration

	// counters
	frozenBytes  int64
	recallCount  int64
	frozenCount  int64
	expiredCount int64
}

// New returns an empty archive.
func New() *Archive {
	return &Archive{
		items: make(map[string]*item), now: time.Now,
		RecallLatency: 4 * time.Hour,
	}
}

// SetClock replaces the archive clock (simulated time in tests/benches).
func (a *Archive) SetClock(now func() time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.now = now
}

// Freeze stores data under key. Re-freezing a key overwrites it.
func (a *Archive) Freeze(key string, data []byte) ItemInfo {
	a.mu.Lock()
	defer a.mu.Unlock()
	if old, ok := a.items[key]; ok {
		a.frozenBytes -= int64(len(old.data))
		a.frozenCount--
	}
	it := &item{data: append([]byte(nil), data...), frozen: a.now()}
	a.items[key] = it
	a.frozenBytes += int64(len(data))
	a.frozenCount++
	return ItemInfo{Key: key, Size: int64(len(data)), Frozen: it.frozen}
}

// Recall schedules a tape recall and returns the status it leaves
// behind. Recalling an item already recalled is a no-op that reports its
// progress.
func (a *Archive) Recall(key string) (RecallStatus, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	it, ok := a.items[key]
	if !ok {
		return RecallStatus{}, fmt.Errorf("%w: %s", ErrNoItem, key)
	}
	if it.recallDone.IsZero() {
		it.recallDone = a.now().Add(a.RecallLatency)
		a.recallCount++
	}
	return a.status(it), nil
}

// RecallState is the non-blocking recall progress of an item.
type RecallState int

// Recall states, in lifecycle order.
const (
	// RecallNone: no recall has been issued; Read would fail.
	RecallNone RecallState = iota
	// RecallPending: a recall is in flight; Wait says when it lands.
	RecallPending
	// RecallStaged: the recall completed; Read succeeds.
	RecallStaged
)

// String renders the state for logs and headers.
func (s RecallState) String() string {
	switch s {
	case RecallPending:
		return "pending"
	case RecallStaged:
		return "staged"
	default:
		return "none"
	}
}

// RecallStatus is the answer to "can I read this item right now, and if
// not, when?" — what a federated query planner needs mid-flight, where
// blocking on a simulated multi-hour tape mount is not an option.
type RecallStatus struct {
	State RecallState
	// Wait is how long until the recall lands, on the archive's clock;
	// zero unless State is RecallPending.
	Wait time.Duration
}

// Status reports an item's recall progress without issuing a recall or
// blocking. It fails only when the key does not exist.
func (a *Archive) Status(key string) (RecallStatus, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	it, ok := a.items[key]
	if !ok {
		return RecallStatus{}, fmt.Errorf("%w: %s", ErrNoItem, key)
	}
	return a.status(it), nil
}

// status is the recall progress of it; a.mu is held.
func (a *Archive) status(it *item) RecallStatus {
	if it.recallDone.IsZero() {
		return RecallStatus{State: RecallNone}
	}
	if wait := it.recallDone.Sub(a.now()); wait > 0 {
		return RecallStatus{State: RecallPending, Wait: wait}
	}
	return RecallStatus{State: RecallStaged}
}

// Read returns the data of a recalled item. It fails with ErrNotRecalled
// if no recall was issued, or ErrRecallAgain while the recall is pending.
func (a *Archive) Read(key string) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	it, ok := a.items[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoItem, key)
	}
	if it.recallDone.IsZero() {
		return nil, fmt.Errorf("%w: %s", ErrNotRecalled, key)
	}
	if a.now().Before(it.recallDone) {
		return nil, fmt.Errorf("%w: %s ready at %s", ErrRecallAgain, key, it.recallDone.Format(time.RFC3339))
	}
	return append([]byte(nil), it.data...), nil
}

// List returns item infos with the prefix, sorted by key.
func (a *Archive) List(prefix string) []ItemInfo {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []ItemInfo
	for k, it := range a.items {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		out = append(out, ItemInfo{
			Key: k, Size: int64(len(it.data)), Frozen: it.frozen,
			Recalled: !it.recallDone.IsZero() && !a.now().Before(it.recallDone),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Delete removes an item.
func (a *Archive) Delete(key string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	it, ok := a.items[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoItem, key)
	}
	a.frozenBytes -= int64(len(it.data))
	a.frozenCount--
	a.expiredCount++
	delete(a.items, key)
	return nil
}

// Stats summarizes archive contents.
type Stats struct {
	Items       int64
	Bytes       int64
	Recalls     int64
	Expirations int64
}

// Stats returns current counters.
func (a *Archive) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{Items: a.frozenCount, Bytes: a.frozenBytes, Recalls: a.recallCount, Expirations: a.expiredCount}
}
