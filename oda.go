// Package oda is the public API of odakit: a self-contained, stdlib-only
// Go reproduction of the end-to-end Operational Data Analytics framework
// described in "Navigating Exascale Operational Data Analytics: From
// Inundation to Insight" (SC 2024).
//
// The entry point is the Facility (Fig 5's one-stop shop): it owns a
// synthetic telemetry source standing in for the instrumented HPC system,
// the STREAM broker, the LAKE stores (time-series + log search), the
// OCEAN object store, the GLACIER archive, the Slate-like application
// platform, the medallion dataset registry, the DataRUC governance
// workflow, the ML pipeline, and the RATS reporting store.
//
//	f, err := oda.NewFacility(oda.Options{})
//	...
//	stats, err := f.IngestWindow(ctx, from, to, oda.SourcePowerTemp)
//	m, err := f.DrainSilver(ctx, oda.SilverPipelineConfig{Source: oda.SourcePowerTemp})
//	gold, err := f.BuildGold(ctx, oda.SourcePowerTemp, "node_power_w", 32)
//
// Subsystems are exposed as facility fields (f.Lake, f.Logs, f.Ocean,
// f.Glacier, f.Broker, ...) and through re-exported constructors below.
// See DESIGN.md for the paper-to-module map and EXPERIMENTS.md for the
// table/figure reproductions.
package oda

import (
	"net/http"
	"time"

	"odakit/internal/archive"
	"odakit/internal/cluster"
	"odakit/internal/core"
	"odakit/internal/cq"
	"odakit/internal/faults"
	"odakit/internal/gateway"
	"odakit/internal/governance"
	"odakit/internal/httpapi"
	"odakit/internal/jobsched"
	"odakit/internal/medallion"
	"odakit/internal/obs"
	"odakit/internal/plane"
	"odakit/internal/profiles"
	"odakit/internal/resilience"
	"odakit/internal/schema"
	"odakit/internal/sproc"
	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
	"odakit/internal/twin"
	"odakit/internal/viz"
)

// Facility is the assembled end-to-end ODA framework (Fig 5).
type Facility = core.Facility

// Options configures NewFacility.
type Options = core.Options

// NewFacility builds and wires a facility.
func NewFacility(opts Options) (*Facility, error) { return core.NewFacility(opts) }

// SilverPipelineConfig tunes a streaming Bronze→Silver pipeline.
type SilverPipelineConfig = core.SilverPipelineConfig

// IngestStats summarizes an ingest window (the Fig 4-a numbers).
type IngestStats = core.IngestStats

// GoldArtifacts are the outputs of a Gold build (Fig 8/10 inputs).
type GoldArtifacts = core.GoldArtifacts

// LifeCycleReport times one full Fig 1 loop.
type LifeCycleReport = core.LifeCycleReport

// ControlLoops is the Fig 4-c registry of operational feedback loops.
var ControlLoops = core.ControlLoops

// OCEAN bucket names.
const (
	BucketBronze = core.BucketBronze
	BucketSilver = core.BucketSilver
	BucketGold   = core.BucketGold
)

// Telemetry sources (the Fig 3 data-source rows).
const (
	SourcePowerTemp     = telemetry.SourcePowerTemp
	SourcePerfCounters  = telemetry.SourcePerfCounters
	SourceGPU           = telemetry.SourceGPU
	SourceStorageClient = telemetry.SourceStorageClient
	SourceFabricClient  = telemetry.SourceFabricClient
	SourceStorageSystem = telemetry.SourceStorageSystem
	SourceFabric        = telemetry.SourceFabric
	SourceFacility      = telemetry.SourceFacility
	SourceSyslog        = telemetry.SourceSyslog
)

// SystemConfig describes a simulated system generation.
type SystemConfig = telemetry.SystemConfig

// FrontierLike returns the "compass" (current-generation) system config.
func FrontierLike(seed int64) SystemConfig { return telemetry.FrontierLike(seed) }

// SummitLike returns the "mountain" (prior-generation) system config.
func SummitLike(seed int64) SystemConfig { return telemetry.SummitLike(seed) }

// Observation is one raw sensor reading (the Bronze long-format record).
type Observation = schema.Observation

// Anomaly is an injected incident with exact ground truth.
type Anomaly = telemetry.Anomaly

// Injected incident kinds.
const (
	AnomalyThermalRunaway  = telemetry.AnomalyThermalRunaway
	AnomalySensorFlatline  = telemetry.AnomalySensorFlatline
	AnomalyGPUFailureBurst = telemetry.AnomalyGPUFailureBurst
)

// Event is one log/event record.
type Event = schema.Event

// JobProfile is a Gold-stage job power profile (Fig 10 feature).
type JobProfile = medallion.JobProfile

// Schedule is a simulated resource-manager schedule.
type Schedule = jobsched.Schedule

// WorkloadConfig parametrizes the synthetic job mix.
type WorkloadConfig = jobsched.WorkloadConfig

// Digital twin (Fig 11) re-exports.
type (
	// TwinConfig parametrizes the digital twin.
	TwinConfig = twin.Config
	// TwinSimulator is the ExaDigiT-like twin instance.
	TwinSimulator = twin.Simulator
	// TracePoint is one step of an IT power trace.
	TracePoint = twin.TracePoint
)

// NewTwin returns a digital-twin simulator.
func NewTwin(cfg TwinConfig) (*TwinSimulator, error) { return twin.New(cfg) }

// DefaultTwinConfig returns the compass-calibrated twin configuration.
func DefaultTwinConfig() TwinConfig { return twin.DefaultConfig() }

// HPLTrace synthesizes an HPL-run power trace (Fig 11 middle panel).
func HPLTrace(cfg twin.HPLConfig, start time.Time) []TracePoint { return twin.HPLTrace(cfg, start) }

// HPLConfig parametrizes HPLTrace.
type HPLConfig = twin.HPLConfig

// Profile classifier (Fig 10) re-exports.
type (
	// Classifier is the trained NN job power-profile classifier.
	Classifier = profiles.Classifier
	// ClassifierConfig tunes classifier training.
	ClassifierConfig = profiles.Config
)

// TrainClassifier fits the classifier on profile vectors.
func TrainClassifier(vectors [][]float64, cfg ClassifierConfig) (*Classifier, error) {
	return profiles.Train(vectors, cfg)
}

// Governance (Table II / Fig 12) re-exports.
type (
	// ReleaseKind classifies a governance request.
	ReleaseKind = governance.ReleaseKind
	// GovernanceStage is one advisory-chain stage.
	GovernanceStage = governance.Stage
)

// Governance request kinds.
const (
	InternalUse    = governance.InternalUse
	ExternalCollab = governance.ExternalCollab
	Publication    = governance.Publication
)

// GovernanceStages lists the Table II advisory chain in review order.
func GovernanceStages() []GovernanceStage { return governance.Stages() }

// Visualization re-exports.
type (
	// UADashboard is the Fig 6 user-assistance dashboard.
	UADashboard = viz.UADashboard
	// LVA is the Fig 8 Live Visual Analytics service.
	LVA = viz.LVA
)

// NewLVA builds the LVA service from Gold artifacts.
func NewLVA(profiles []JobProfile, systemSeries *schema.Frame) (*LVA, error) {
	return viz.NewLVA(profiles, systemSeries)
}

// Sparkline renders a series as a unicode strip.
func Sparkline(values []float64) string { return viz.Sparkline(values) }

// NewHTTPHandler returns the facility's read-only JSON data portal — the
// §V-C "web server data portal" pattern. Mount it on any http.Server.
func NewHTTPHandler(f *Facility) http.Handler { return httpapi.New(f) }

// Resilience & chaos re-exports: retries with jittered backoff, circuit
// breakers, supervised pipelines, and the deterministic fault injector.
type (
	// RetryPolicy shapes retries of transient infrastructure faults
	// (Options.RetryPolicy, the one policy of every facility pipeline;
	// the zero value applies the defaults).
	RetryPolicy = resilience.Policy
	// BreakerConfig tunes a sink circuit breaker
	// (SilverPipelineConfig.Breaker).
	BreakerConfig = resilience.BreakerConfig
	// SupervisorConfig tunes restart damping for supervised pipelines
	// (Facility.RunSilverSupervised).
	SupervisorConfig = resilience.SupervisorConfig
	// PipelineStatus is one supervised pipeline's externally visible
	// health (Facility.Pipelines.Snapshot, /api/v1/pipelines).
	PipelineStatus = sproc.PipelineStatus
	// FaultInjector deterministically injects infrastructure faults.
	FaultInjector = faults.Injector
	// FaultRates configures injection for one operation.
	FaultRates = faults.Rates
	// DeadRecord is one quarantined poison record with its provenance.
	DeadRecord = plane.DeadRecord
)

// NewFaultInjector returns a seed-driven chaos injector; Install it on a
// facility's tiers (f.Broker, f.Ocean, f.Lake).
func NewFaultInjector(seed int64) *FaultInjector { return faults.New(seed) }

// MarkTransient marks an error retryable; IsTransient reports whether an
// error chain carries that marker (context errors never do).
func MarkTransient(err error) error { return resilience.MarkTransient(err) }

// IsTransient reports whether err is worth retrying.
func IsTransient(err error) bool { return resilience.IsTransient(err) }

// Observability re-exports: the zero-dependency metrics/tracing substrate
// every tier reports into (Facility.Obs, Facility.Tracer).
type (
	// MetricsRegistry holds typed metric families and renders Prometheus
	// text exposition (served at /metrics).
	MetricsRegistry = obs.Registry
	// Tracer samples pipeline journeys into retained trace trees
	// (served at /api/v1/traces).
	Tracer = obs.Tracer
	// TraceSpan is one stage of a sampled pipeline journey.
	TraceSpan = obs.Span
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewDebugHandler returns the operator debug surface for a facility:
// GET /metrics, GET /api/v1/traces, and net/http/pprof under /debug/pprof/.
func NewDebugHandler(f *Facility) http.Handler { return obs.NewDebugMux(f.Obs, f.Tracer) }

// MetricsPanel renders a registry as a compact terminal panel.
func MetricsPanel(reg *MetricsRegistry) string { return viz.MetricsPanel(reg) }

// Tier-federation re-exports: the LAKE store's age-based offload into
// OCEAN columnar segments (tsdb.ColdSchema, also the form of a stripe in
// transit between cluster replicas) and the transparent hot+cold+glacier
// query path (Facility.Lake.Offload / AttachColdTier / ColdStats).
type (
	// ColdTierConfig wires a LAKE store to an OCEAN bucket (and
	// optionally a GLACIER archive) for segment offload and federation.
	ColdTierConfig = tsdb.ColdTierConfig
	// ColdTier is an attached cold tier; exposes Stats and SetPruning.
	ColdTier = tsdb.ColdTier
	// OffloadStats summarizes one Offload sweep.
	OffloadStats = tsdb.OffloadStats
	// ColdStats describes the resident cold tier (segment/row counts).
	ColdStats = tsdb.ColdStats
	// QueryStats carries per-query engine costs, including cold-segment
	// scan/prune counts and GLACIER recall latency.
	QueryStats = tsdb.QueryStats
	// RecallState is a GLACIER object's recall lifecycle position.
	RecallState = archive.RecallState
)

// Recall states reported by Facility.Glacier.Status.
const (
	RecallNone    = archive.RecallNone
	RecallPending = archive.RecallPending
	RecallStaged  = archive.RecallStaged
)

// Multi-tenant serving-gateway re-exports: the quota/admission front end
// for the data portal (§V-C self-service serving at facility scale).
type (
	// Gateway fronts an http.Handler with tenant resolution, token-bucket
	// rate/scan quotas, and priority-aware admission control.
	Gateway = gateway.Gateway
	// GatewayOptions wires the gateway to a platform (capacity-backed
	// tenant registration) and a metrics registry.
	GatewayOptions = gateway.Options
	// TenantConfig declares one tenant's identity, priority, and quotas.
	TenantConfig = gateway.TenantConfig
	// TenantPriority orders tenants at the admission gate.
	TenantPriority = gateway.Priority
	// LoadScenario describes one load-harness run against the gateway.
	LoadScenario = gateway.Scenario
	// LoadResult is a load run's aggregate latency/throttle/shed outcome.
	LoadResult = gateway.Result
)

// Tenant priorities, lowest to highest.
const (
	PriorityBatch       = gateway.PriorityBatch
	PriorityInteractive = gateway.PriorityInteractive
	PriorityUrgent      = gateway.PriorityUrgent
)

// NewGateway fronts a handler (usually NewHTTPHandler's portal) with the
// multi-tenant serving gateway.
func NewGateway(next http.Handler, opts GatewayOptions) *Gateway { return gateway.New(next, opts) }

// RunLoad drives a handler with a simulated open/closed-loop client
// population and reports per-tenant p50/p95/p99 and 429/503 rates.
func RunLoad(h http.Handler, sc LoadScenario) LoadResult { return gateway.RunLoad(h, sc) }

// Continuous-query re-exports: standing queries maintained incrementally
// as records flow through STREAM, served at memory speed (no LAKE scan).
type (
	// CQEngine owns registered continuous-query views and fans published
	// records out to them; reads fold the in-memory window.
	CQEngine = cq.Engine
	// CQSpec describes one standing query: the lake-query shape (filters,
	// group-by, agg, granularity) plus a sliding or tumbling window and
	// optional threshold/anomaly alerting.
	CQSpec = cq.Spec
	// CQAlertSpec attaches Above/Below thresholds and an online anomaly
	// score bound (optionally over Holt-Winters forecast residuals).
	CQAlertSpec = cq.AlertSpec
	// CQView is one standing query's materialized state.
	CQView = cq.View
	// CQAlert is one fired threshold/anomaly alert.
	CQAlert = cq.Alert
	// CQPump drains bronze topics into a CQEngine with crash-consistent,
	// exactly-once checkpointing (offsets + view state in one atomic file).
	CQPump = cq.Pump
	// CQPumpConfig wires a pump to topics and a checkpoint directory.
	CQPumpConfig = cq.PumpConfig
	// CQViewStats is a view's live position and counters.
	CQViewStats = cq.ViewStats
)

// Continuous-query window kinds.
const (
	CQWindowSliding  = cq.WindowSliding
	CQWindowTumbling = cq.WindowTumbling
)

// NewCQPump drains the given topics of a data plane's STREAM (a broker
// or a Cluster) into a CQ engine; most callers want Facility.NewCQPump,
// which wires the facility's bronze topics automatically.
func NewCQPump(e *CQEngine, s plane.Stream, cfg CQPumpConfig) (*CQPump, error) {
	return cq.NewPumpSource(e, s, cfg)
}

// Cluster re-exports: N-node replicated deployment of STREAM + LAKE
// behind a consistent-hash ring, with quorum replication, failover, and
// a scatter-gather query router whose results are byte-identical to the
// single-node engine.
type (
	// Cluster is the replicated N-node deployment (internal/cluster).
	Cluster = cluster.Cluster
	// ClusterConfig tunes replication factor, quorum, ring geometry,
	// and the per-node LAKE options.
	ClusterConfig = cluster.Config
	// ClusterHealth is the replication-aware health summary merged into
	// /healthz by clustered servers.
	ClusterHealth = cluster.Health
)

// NewCluster builds an N-node in-process cluster. Node lakes must share
// the facility's rollup geometry for byte-identical query results:
// pass tsdb-compatible options via ClusterConfig.LakeOptions.
func NewCluster(nodeIDs []string, cfg ClusterConfig) (*Cluster, error) {
	return cluster.New(nodeIDs, cfg)
}

// ClusterPanel renders cluster replication health as a terminal panel,
// the operator complement to the /healthz JSON.
func ClusterPanel(h ClusterHealth) string { return viz.ClusterPanel(h) }
