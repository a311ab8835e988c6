package plane

import (
	"context"
	"sort"
	"sync"

	"odakit/internal/obs"
	"odakit/internal/resilience"
)

// Runner is one incarnation of a supervised pipeline: a consumer on a
// Loop, such as a cq.Pump, with the loop's counters.
type Runner interface {
	Run(ctx context.Context) error
	Stats() LoopStats
}

// Pipeline is a supervised, restartable consumer: each incarnation is
// built afresh, so it opens a new reader and restores from its
// checkpoint, while the supervisor's restart damping keeps a persistently
// failing one from hot-looping. A Registry shows its health to /healthz,
// /api/v1/pipelines and the dashboard.
type Pipeline struct {
	name    string
	build   func() (Runner, error)
	sup     *resilience.Supervisor
	breaker *resilience.Breaker

	mu  sync.Mutex
	run Runner // current incarnation; nil before the first start
}

// NewPipeline returns a pipeline that builds each incarnation with build.
// breaker, when non-nil, is the sink breaker its incarnations share,
// reported with the pipeline's status.
func NewPipeline(name string, scfg resilience.SupervisorConfig, breaker *resilience.Breaker, build func() (Runner, error)) *Pipeline {
	if scfg.Name == "" {
		scfg.Name = name
	}
	return &Pipeline{name: name, build: build, sup: resilience.NewSupervisor(scfg), breaker: breaker}
}

// Run supervises the pipeline until it stops cleanly, fails fatally,
// exhausts the restart budget, or ctx is done.
func (p *Pipeline) Run(ctx context.Context) error {
	return p.sup.Run(ctx, func(ctx context.Context) error {
		r, err := p.build()
		if err != nil {
			return err
		}
		p.mu.Lock()
		p.run = r
		p.mu.Unlock()
		return r.Run(ctx)
	})
}

// PipelineStatus is one pipeline's externally visible health. Metrics
// are its current incarnation's: they reset on a restart, which
// Supervisor.Restarts counts.
type PipelineStatus struct {
	Name       string                     `json:"name"`
	State      string                     `json:"state"`
	Metrics    LoopStats                  `json:"metrics"`
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
	r.pipelines[p.name] = p
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
		sup := p.sup.Stats()
		st := PipelineStatus{Name: p.name, State: sup.State, Supervisor: sup}
		p.mu.Lock()
		if p.run != nil {
			st.Metrics = p.run.Stats()
		}
		p.mu.Unlock()
		if p.breaker != nil {
			bs := p.breaker.Stats()
			st.Breaker = &bs
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}

// Instrument registers a scrape-time collector of the pipelines' health
// with reg: per-pipeline restart pressure and breaker state on /metrics.
func (r *Registry) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCollector(func(emit func(obs.Sample)) {
		for _, ps := range r.Snapshot() {
			l := obs.Labels("pipeline", ps.Name)
			healthy := 0.0
			if ps.Healthy() {
				healthy = 1
			}
			emit(obs.Sample{Name: "oda_pipeline_healthy" + l, Kind: obs.KindGauge,
				Help: "1 when the supervised pipeline is healthy.", Value: healthy})
			emit(obs.Sample{Name: "oda_pipeline_restarts_total" + l, Kind: obs.KindCounter,
				Help: "Supervisor restarts per pipeline.", Value: float64(ps.Supervisor.Restarts)})
			emit(obs.Sample{Name: "oda_pipeline_retries_total" + l, Kind: obs.KindCounter,
				Help: "Retries consumed per pipeline.", Value: float64(ps.Metrics.Retries)})
			emit(obs.Sample{Name: "oda_pipeline_dead_letters_total" + l, Kind: obs.KindCounter,
				Help: "Records dead-lettered per pipeline.", Value: float64(ps.Metrics.Bad)})
			if ps.Breaker != nil {
				open := 0.0
				if ps.Breaker.State == "open" {
					open = 1
				}
				emit(obs.Sample{Name: "oda_breaker_open" + l, Kind: obs.KindGauge,
					Help: "1 when the pipeline's sink circuit breaker is open.", Value: open})
				emit(obs.Sample{Name: "oda_breaker_opens_total" + l, Kind: obs.KindCounter,
					Help: "Circuit-breaker trips per pipeline.", Value: float64(ps.Breaker.Opens)})
			}
		}
	})
}
