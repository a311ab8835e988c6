package cq

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"odakit/internal/obs"
	"odakit/internal/schema"
)

// Config sizes the engine's cell geometry. RollupInterval and
// SegmentDuration MUST match the LAKE the views are compared against
// (core wires both from the same facility options) or the equivalence
// guarantee does not hold.
type Config struct {
	RollupInterval  time.Duration // default 15s (tsdb's default)
	SegmentDuration time.Duration // default 1h (tsdb's default)
	// Registry, when non-nil, receives oda_cq_* metrics.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.RollupInterval <= 0 {
		c.RollupInterval = 15 * time.Second
	}
	if c.SegmentDuration <= 0 {
		c.SegmentDuration = time.Hour
	}
	return c
}

// Engine owns the registered views and fans published records out to
// them. Safe for concurrent use; Apply serializes per view, not across
// views.
type Engine struct {
	cfg Config

	mu    sync.RWMutex
	views map[string]*View

	mUpdates     *obs.Counter // view generations bumped
	mReads       *obs.Counter // view reads served
	mReadHits    *obs.Counter // ... of which generation-cache hits
	mApplied     *obs.Counter // observations folded into views
	mLate        *obs.Counter // observations dropped below eviction horizon
	mAlerts      *obs.Counter // alerts fired
	mCheckpoints *obs.Counter // pump checkpoints written
	mDeadLetters *obs.Counter // poison records the pump quarantined
}

// NewEngine builds an engine and registers its metrics.
func NewEngine(cfg Config) *Engine {
	e := &Engine{cfg: cfg.withDefaults(), views: make(map[string]*View)}
	if r := cfg.Registry; r != nil {
		e.mUpdates = r.Counter("oda_cq_updates_total", "Continuous-query view updates applied.")
		e.mReads = r.Counter("oda_cq_reads_total", "Continuous-query view reads served.")
		e.mReadHits = r.Counter("oda_cq_read_cache_hits_total", "CQ reads answered from the generation cache.")
		e.mApplied = r.Counter("oda_cq_observations_total", "Observations folded into CQ views.")
		e.mLate = r.Counter("oda_cq_late_dropped_total", "Late observations dropped below the eviction horizon.")
		e.mAlerts = r.Counter("oda_cq_alerts_total", "CQ threshold/anomaly alerts fired.")
		e.mCheckpoints = r.Counter("oda_cq_checkpoints_total", "CQ pump checkpoints written.")
		e.mDeadLetters = r.Counter("oda_cq_dead_letters_total", "Poison records the CQ pump quarantined to DLQs.")
		r.RegisterCollector(func(emit func(obs.Sample)) {
			e.mu.RLock()
			views := int64(len(e.views))
			var watchers int64
			for _, v := range e.views {
				watchers += v.watchCount.Load()
			}
			e.mu.RUnlock()
			emit(obs.Sample{Name: "oda_cq_views", Kind: obs.KindGauge,
				Help: "Registered continuous-query views.", Value: float64(views)})
			emit(obs.Sample{Name: "oda_cq_watchers", Kind: obs.KindGauge,
				Help: "Active CQ watch subscriptions.", Value: float64(watchers)})
		})
	}
	return e
}

// Register adds a standing query and returns its view. Registration is
// idempotent and content-addressed: a spec with the same fingerprint
// returns the existing live view (its accumulated window intact), so
// dashboards re-registering on reload share one materialization.
func (e *Engine) Register(spec Spec) (*View, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	id := viewID(spec)
	e.mu.Lock()
	defer e.mu.Unlock()
	if v, ok := e.views[id]; ok {
		return v, nil
	}
	v := newView(e, spec)
	e.views[id] = v
	return v, nil
}

// Get looks a view up by ID.
func (e *Engine) Get(id string) (*View, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	v, ok := e.views[id]
	return v, ok
}

// Unregister drops a view. Watchers' subscription channels stop firing;
// in-flight reads complete against the detached view.
func (e *Engine) Unregister(id string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.views[id]; !ok {
		return false
	}
	delete(e.views, id)
	return true
}

// Views snapshots the registered views sorted by ID.
func (e *Engine) Views() []*View {
	e.mu.RLock()
	out := make([]*View, 0, len(e.views))
	for _, v := range e.views {
		out = append(out, v)
	}
	e.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Apply folds one partition's page of observation rows into every
// registered view. The caller, a Pump, must preserve per-partition
// record order across calls; order between partitions is free.
func (e *Engine) Apply(topic string, part int, rows []schema.Row) {
	if len(rows) == 0 {
		return
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, v := range e.views {
		appliedN, lateN := v.apply(topic, part, rows)
		e.mApplied.Add(appliedN)
		e.mLate.Add(lateN)
	}
}

// noteAlerts is called by a view after scoreAndAlert fires new alerts.
func (e *Engine) noteAlerts(n int64) { e.mAlerts.Add(n) }

// Stats snapshots every view's stats, sorted by ID.
func (e *Engine) Stats() []ViewStats {
	views := e.Views()
	out := make([]ViewStats, 0, len(views))
	for _, v := range views {
		out = append(out, v.Stats())
	}
	return out
}

// String implements fmt.Stringer for debug logs.
func (e *Engine) String() string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return fmt.Sprintf("cq.Engine(%d views)", len(e.views))
}
