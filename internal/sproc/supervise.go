package sproc

import (
	"context"
	"sort"
	"sync"

	"odakit/internal/resilience"
)

// Supervised pipelines: a Pipeline couples a restartable job with its
// supervisor so each incarnation opens a fresh reader and restores from its
// checkpoint, while restart damping keeps a persistently failing job
// from hot-looping. A Registry makes every pipeline's health observable
// to the HTTP API (/healthz, /api/v1/pipelines) and the dashboard.

// Pipeline is a supervised, restartable streaming job.
type Pipeline struct {
	name  string
	build func() (*Job, error)
	sup   *resilience.Supervisor

	mu  sync.Mutex
	job *Job // current incarnation; nil before the first start
}

// NewPipeline returns a pipeline that builds a fresh Job per incarnation
// via build. The job must recover its own progress (checkpoints) — the
// supervisor only decides whether and when to start it again.
func NewPipeline(name string, scfg resilience.SupervisorConfig, build func() (*Job, error)) *Pipeline {
	if scfg.Name == "" {
		scfg.Name = name
	}
	return &Pipeline{name: name, build: build, sup: resilience.NewSupervisor(scfg)}
}

// Name returns the pipeline's registry name.
func (p *Pipeline) Name() string { return p.name }

// Run supervises the job until it stops cleanly, fails fatally, exhausts
// the restart budget, or ctx is done. Each restart rebuilds the Job, so
// it opens a fresh reader and restores from its checkpoint.
func (p *Pipeline) Run(ctx context.Context) error {
	return p.sup.Run(ctx, func(ctx context.Context) error {
		j, err := p.build()
		if err != nil {
			return err
		}
		p.mu.Lock()
		p.job = j
		p.mu.Unlock()
		return j.Run(ctx)
	})
}

// Supervisor exposes the pipeline's supervisor (health and tests).
func (p *Pipeline) Supervisor() *resilience.Supervisor { return p.sup }

// Job returns the current job incarnation (nil before the first start).
func (p *Pipeline) Job() *Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.job
}

// Metrics snapshots the current incarnation's counters with the
// supervisor's restart count folded in. Counters reset on restart (each
// incarnation is a fresh Job); Restarts says how often that happened.
func (p *Pipeline) Metrics() Metrics {
	var m Metrics
	if j := p.Job(); j != nil {
		m = j.Metrics()
	}
	m.Restarts = p.sup.Stats().Restarts
	return m
}

// PipelineStatus is one pipeline's externally visible health.
type PipelineStatus struct {
	Name       string                     `json:"name"`
	State      string                     `json:"state"`
	Metrics    Metrics                    `json:"metrics"`
	Supervisor resilience.SupervisorStats `json:"supervisor"`
	Breaker    *resilience.BreakerStats   `json:"breaker,omitempty"`
}

// Healthy reports whether the pipeline is in a non-failed state.
func (s PipelineStatus) Healthy() bool { return s.State != "failed" }

// Registry tracks pipelines for health and metrics endpoints.
type Registry struct {
	mu        sync.Mutex
	pipelines map[string]*Pipeline
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{pipelines: make(map[string]*Pipeline)}
}

// Register adds (or replaces) a pipeline under its name.
func (r *Registry) Register(p *Pipeline) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pipelines[p.Name()] = p
}

// Snapshot returns every registered pipeline's status, sorted by name.
func (r *Registry) Snapshot() []PipelineStatus {
	r.mu.Lock()
	ps := make([]*Pipeline, 0, len(r.pipelines))
	for _, p := range r.pipelines {
		ps = append(ps, p)
	}
	r.mu.Unlock()
	out := make([]PipelineStatus, 0, len(ps))
	for _, p := range ps {
		st := PipelineStatus{
			Name:       p.Name(),
			State:      p.sup.Stats().State,
			Metrics:    p.Metrics(),
			Supervisor: p.sup.Stats(),
		}
		if j := p.Job(); j != nil && j.Breaker() != nil {
			bs := j.Breaker().Stats()
			st.Breaker = &bs
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}
