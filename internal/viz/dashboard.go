package viz

import (
	"fmt"
	"strings"
	"time"

	"odakit/internal/cq"
	"odakit/internal/gateway"
	"odakit/internal/jobsched"
	"odakit/internal/logsearch"
	"odakit/internal/plane"
	"odakit/internal/tsdb"
)

// UADashboard is the user-assistance view of Fig 6: for one job it
// compiles "data from various sources, including compute, storage, and
// system logs, all integrated with job node allocation details" —
// replacing the old method of manually checking different systems.
type UADashboard struct {
	// Lake answers the view's queries: any data plane's LAKE.
	Lake plane.Lake
	Logs *logsearch.Index
	// Sched resolves job metadata and node lists.
	Sched *jobsched.Schedule
	// Pipelines, when set, adds a resilience footer: per-pipeline
	// supervisor state, restarts, retries, dead-letters, breaker opens.
	Pipelines *plane.Registry
	// Gateway, when set, adds a serving footer: per-tenant request and
	// throttle counters plus the admission queue depth, so operators see
	// who is saturating the portal next to the job data it slows down.
	Gateway *gateway.Gateway
	// CQ, when set, adds a continuous-query panel: each standing view's
	// position (generation, watermark), live cell count, watcher count,
	// and alerts fired — the views answering dashboard refreshes without
	// the LAKE scans counted in the footer above.
	CQ *cq.Engine
}

// JobView is the compiled diagnostic view for one job.
type JobView struct {
	JobID   string
	User    string
	Project string
	State   string
	Nodes   int
	Start   time.Time
	End     time.Time
	// Per-metric node-mean series over the job's lifetime (sparkline-ready).
	PowerSeries []float64
	GPUUtil     []float64
	// Hottest nodes by mean power (triage order).
	TopNodes []tsdb.TopNEntry
	// Events on the job's nodes during its run, newest first.
	Events []string
	// QueriesIssued counts backend queries — the "one view instead of
	// checking N systems" consolidation metric.
	QueriesIssued int
	// CellsScanned and CacheHits aggregate the LAKE engine's QueryStats
	// across the view's queries: how much scan work the dashboard cost,
	// and how much the query-result cache absorbed on refresh.
	CellsScanned int64
	CacheHits    int
	// Tier-federation cost: how many offloaded OCEAN segments the view's
	// queries touched vs skipped via zone-map/bloom pruning, row groups
	// pruned inside scanned segments, segments waiting on GLACIER recall,
	// and total recall wait folded into the build.
	ColdSegmentsScanned int
	ColdSegmentsPruned  int
	ColdRowGroupsPruned int
	GlacierPending      int
	RecallWait          time.Duration
	BuildLatency        time.Duration
	// Pipelines carries the supervised pipelines' health so operators see
	// quarantine and restart pressure next to the job data it may affect.
	Pipelines []plane.PipelineStatus
	// Gateway, when present, carries the serving layer's tenant snapshot.
	Gateway *gateway.Snapshot
	// CQViews, when present, carries the standing continuous queries.
	CQViews []cq.ViewStats
}

// BuildJobView compiles the dashboard for a job id.
func (d *UADashboard) BuildJobView(jobID string, maxEvents int) (*JobView, error) {
	start := time.Now()
	j, ok := d.Sched.Job(jobID)
	if !ok {
		return nil, fmt.Errorf("viz: no such job %q", jobID)
	}
	if maxEvents <= 0 {
		maxEvents = 20
	}
	v := &JobView{
		JobID: j.ID, User: j.User, Project: j.Project, State: j.State.String(),
		Nodes: j.Nodes, Start: j.Start, End: j.End,
	}
	nodeNames := make([]string, 0, len(j.NodeList))
	for _, n := range j.NodeList {
		nodeNames = append(nodeNames, fmt.Sprintf("node%05d", n))
	}

	// Power series: node-mean power per minute over the job window.
	gran := j.End.Sub(j.Start) / 48
	if gran < time.Minute {
		gran = time.Minute
	}
	pf, pst, err := d.Lake.RunWithStats(tsdb.Query{
		From: j.Start, To: j.End,
		Filters:     map[string][]string{tsdb.DimMetric: {"node_power_w"}, tsdb.DimComponent: nodeNames},
		Granularity: gran, Agg: tsdb.AggAvg,
	})
	if err != nil {
		return nil, err
	}
	v.QueriesIssued++
	v.noteStats(pst)
	for i := 0; i < pf.Len(); i++ {
		v.PowerSeries = append(v.PowerSeries, pf.Row(i)[1].FloatVal())
	}

	// GPU utilization (if collected).
	gpuNames := make([]string, 0, len(j.NodeList))
	for _, n := range j.NodeList {
		for g := 0; g < 8; g++ {
			gpuNames = append(gpuNames, fmt.Sprintf("node%05d.gpu%d", n, g))
		}
	}
	gf, gst, err := d.Lake.RunWithStats(tsdb.Query{
		From: j.Start, To: j.End,
		Filters:     map[string][]string{tsdb.DimMetric: {"gpu_util_pct"}, tsdb.DimComponent: gpuNames},
		Granularity: gran, Agg: tsdb.AggAvg,
	})
	if err != nil {
		return nil, err
	}
	v.QueriesIssued++
	v.noteStats(gst)
	for i := 0; i < gf.Len(); i++ {
		v.GPUUtil = append(v.GPUUtil, gf.Row(i)[1].FloatVal())
	}

	// Hottest nodes.
	top, tst, err := tsdb.TopN(d.Lake, tsdb.Query{
		From: j.Start, To: j.End,
		Filters: map[string][]string{tsdb.DimMetric: {"node_power_w"}, tsdb.DimComponent: nodeNames},
		Agg:     tsdb.AggAvg,
	}, tsdb.DimComponent, 5)
	if err != nil {
		return nil, err
	}
	v.QueriesIssued++
	v.noteStats(tst)
	v.TopNodes = top

	// Log events on the job's nodes during the run.
	for _, host := range nodeNames {
		if len(v.Events) >= maxEvents {
			break
		}
		hits := d.Logs.Search(logsearch.Query{
			Host: host, From: j.Start, To: j.End, Limit: maxEvents - len(v.Events),
		})
		v.QueriesIssued++
		for _, e := range hits {
			v.Events = append(v.Events, fmt.Sprintf("%s %s %s: %s",
				e.Ts.Format("15:04:05"), e.Severity, e.Host, e.Message))
		}
	}
	if d.Pipelines != nil {
		v.Pipelines = d.Pipelines.Snapshot()
	}
	if d.Gateway != nil {
		snap := d.Gateway.Stats()
		v.Gateway = &snap
	}
	if d.CQ != nil {
		v.CQViews = d.CQ.Stats()
	}
	v.BuildLatency = time.Since(start)
	return v, nil
}

// noteStats folds one query's engine statistics into the view.
func (v *JobView) noteStats(st tsdb.QueryStats) {
	v.CellsScanned += st.CellsScanned
	if st.CacheHit {
		v.CacheHits++
	}
	v.ColdSegmentsScanned += st.ColdSegmentsScanned
	v.ColdSegmentsPruned += st.ColdSegmentsPruned
	v.ColdRowGroupsPruned += st.ColdRowGroupsPruned
	v.GlacierPending += st.GlacierPending
	v.RecallWait += st.RecallWait
}

// RenderText draws the job view as a terminal dashboard.
func (v *JobView) RenderText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== User Assistance: job %s ==\n", v.JobID)
	fmt.Fprintf(&b, "user=%s project=%s state=%s nodes=%d window=%s..%s\n",
		v.User, v.Project, v.State, v.Nodes,
		v.Start.Format("15:04:05"), v.End.Format("15:04:05"))
	fmt.Fprintf(&b, "power   %s\n", Sparkline(v.PowerSeries))
	fmt.Fprintf(&b, "gpuutil %s\n", Sparkline(v.GPUUtil))
	b.WriteString("hottest nodes:\n")
	for _, n := range v.TopNodes {
		fmt.Fprintf(&b, "  %-16s %8.1f W\n", n.Dim, n.Value)
	}
	fmt.Fprintf(&b, "events (%d):\n", len(v.Events))
	for _, e := range v.Events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	tier := fmt.Sprintf("cold %d/%d", v.ColdSegmentsScanned, v.ColdSegmentsScanned+v.ColdSegmentsPruned)
	if v.GlacierPending > 0 {
		tier += fmt.Sprintf(" glacier-pending %d (recall %s)",
			v.GlacierPending, v.RecallWait.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "[%d backend queries, %d cells scanned, %s, %d cache hits, %s]\n",
		v.QueriesIssued, v.CellsScanned, tier, v.CacheHits, v.BuildLatency.Round(time.Microsecond))
	for _, p := range v.Pipelines {
		line := fmt.Sprintf("pipeline %s: %s, restarts=%d retries=%d dead-lettered=%d",
			p.Name, p.State, p.Supervisor.Restarts, p.Metrics.Retries, p.Metrics.Bad)
		if p.Breaker != nil {
			line += fmt.Sprintf(" breaker=%s opens=%d", p.Breaker.State, p.Breaker.Opens)
		}
		b.WriteString(line + "\n")
	}
	if v.Gateway != nil {
		fmt.Fprintf(&b, "gateway: %d tenants, %d queued\n", len(v.Gateway.Tenants), v.Gateway.Queued)
		for _, t := range v.Gateway.Tenants {
			fmt.Fprintf(&b, "  tenant %-12s %-11s reqs=%d throttled=%d\n",
				t.Name, t.Priority, t.Requests, t.Throttled)
		}
	}
	if len(v.CQViews) > 0 {
		fmt.Fprintf(&b, "continuous queries: %d standing\n", len(v.CQViews))
		for _, s := range v.CQViews {
			name := s.Name
			if name == "" {
				name = s.ID
			}
			line := fmt.Sprintf("  cq %-12s %s/%s gen=%d cells=%d watchers=%d alerts=%d",
				name, s.Kind, s.Window, s.Gen, s.Cells, s.Watchers, s.Alerts)
			if !s.Watermark.IsZero() {
				line += " wm=" + s.Watermark.Format("15:04:05")
			}
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}
