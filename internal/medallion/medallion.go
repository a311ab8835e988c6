// Package medallion implements the paper's data refinement states (§V-A,
// Fig 4-b): Bronze (raw long-format sensor observations), Silver
// (time-aggregated, pivoted-wide, job-contextualized rows), and Gold
// (analysis-ready artifacts such as featurized job power profiles). It
// provides the canonical transforms between states and a small registry
// tracking each dataset's stage, shape, and footprint — the numbers the
// Fig 4-b bench reports to show the Bronze→Silver contraction.
package medallion

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"odakit/internal/cq"
	"odakit/internal/jobsched"
	"odakit/internal/schema"
	"odakit/internal/sproc"
	"odakit/internal/tsdb"
)

// Stage is a medallion refinement state.
type Stage int

// The refinement states.
const (
	Bronze Stage = iota
	Silver
	Gold
)

// String returns the stage name.
func (s Stage) String() string {
	switch s {
	case Bronze:
		return "bronze"
	case Silver:
		return "silver"
	case Gold:
		return "gold"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// ErrNoDataset reports a registry miss.
var ErrNoDataset = errors.New("medallion: no such dataset")

// DatasetInfo describes one registered dataset.
type DatasetInfo struct {
	Name    string
	Stage   Stage
	Schema  *schema.Schema
	Rows    int64
	Bytes   int64
	Updated time.Time
}

// Registry tracks datasets across stages. Safe for concurrent use.
type Registry struct {
	mu   sync.RWMutex
	sets map[string]*DatasetInfo
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{sets: make(map[string]*DatasetInfo)} }

// Register adds or replaces a dataset record.
func (r *Registry) Register(name string, stage Stage, sch *schema.Schema) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sets[name] = &DatasetInfo{Name: name, Stage: stage, Schema: sch}
}

// Record accumulates rows/bytes written to a dataset.
func (r *Registry) Record(name string, rows, bytes int64, at time.Time) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.sets[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoDataset, name)
	}
	d.Rows += rows
	d.Bytes += bytes
	if at.After(d.Updated) {
		d.Updated = at
	}
	return nil
}

// Get returns a dataset record.
func (r *Registry) Get(name string) (DatasetInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.sets[name]
	if !ok {
		return DatasetInfo{}, fmt.Errorf("%w: %s", ErrNoDataset, name)
	}
	return *d, nil
}

// List returns all datasets sorted by (stage, name).
func (r *Registry) List() []DatasetInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]DatasetInfo, 0, len(r.sets))
	for _, d := range r.sets {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// SilverSchema is the wide, contextualized Silver schema for a metric set:
// window start, system, component, one column per metric, then the job
// context columns added by Contextualize.
func SilverSchema(metrics []string) *schema.Schema {
	fields := []schema.Field{
		{Name: "window", Kind: schema.KindTime},
		{Name: "system", Kind: schema.KindString},
		{Name: "component", Kind: schema.KindString},
	}
	sorted := append([]string(nil), metrics...)
	sort.Strings(sorted)
	for _, m := range sorted {
		fields = append(fields, schema.Field{Name: m, Kind: schema.KindFloat})
	}
	fields = append(fields,
		schema.Field{Name: "job_id", Kind: schema.KindString},
		schema.Field{Name: "user", Kind: schema.KindString},
		schema.Field{Name: "project", Kind: schema.KindString},
		schema.Field{Name: "program", Kind: schema.KindString},
	)
	return schema.New(fields...)
}

// SilverizeConfig parametrizes the Bronze→Silver transform.
type SilverizeConfig struct {
	// Window is the aggregation interval (the paper's "e.g. every 15
	// seconds").
	Window time.Duration
	// Metrics are the metric names to pivot into wide columns; empty
	// means all metrics present in the data.
	Metrics []string
}

func (c SilverizeConfig) withDefaults() SilverizeConfig {
	if c.Window <= 0 {
		c.Window = 15 * time.Second
	}
	return c
}

// WindowStages returns the stages implementing Bronze→Silver for a
// streaming job: the tumbling CQ view that averages observations per
// (system, component, metric) over the window, the lateness a window
// waits for before it closes, and the pivot of metrics into columns. The
// view's engine takes the window as its rollup interval and segment
// duration, so each window is one cell per series and one chunk. The
// result rows are (window, system, component, metric columns...) and
// still need Contextualize for job columns.
func (c SilverizeConfig) WindowStages() (cq.Spec, time.Duration, func(*schema.Frame) (*schema.Frame, error)) {
	c = c.withDefaults()
	spec := cq.Spec{
		Name:    "silver",
		GroupBy: []string{tsdb.DimSystem, tsdb.DimComponent, tsdb.DimMetric},
		Agg:     tsdb.AggAvg, Granularity: c.Window, Window: c.Window, Kind: cq.WindowTumbling,
	}
	pivot := func(f *schema.Frame) (*schema.Frame, error) {
		return sproc.Pivot(f, []string{"window", "system", "component"}, "metric", "v", sproc.AggAvg)
	}
	return spec, c.Window / 3, pivot
}

// SilverizeBatch applies the Bronze→Silver transform to a batch of
// long-format observations (the backfill path of §VI-B): 15 s window
// averages pivoted wide. Column set is discovered from the data unless
// cfg.Metrics pins it.
func SilverizeBatch(bronze *schema.Frame, cfg SilverizeConfig) (*schema.Frame, error) {
	cfg = cfg.withDefaults()
	if err := conformsObservation(bronze); err != nil {
		return nil, err
	}
	// Bucket timestamps onto window starts, on the grid the streaming
	// job's view buckets on.
	tsIdx, w := bronze.Schema().MustIndex("ts"), int64(cfg.Window)
	bucketed, err := sproc.WithColumn(bronze, "window", schema.KindTime, func(r schema.Row) schema.Value {
		n := r[tsIdx].UnixNanos()
		return schema.TimeNanos(n - tsdb.FloorMod(n, w))
	})
	if err != nil {
		return nil, err
	}
	if len(cfg.Metrics) > 0 {
		want := make(map[string]bool, len(cfg.Metrics))
		for _, m := range cfg.Metrics {
			want[m] = true
		}
		mi := bucketed.Schema().MustIndex("metric")
		bucketed = sproc.Where(bucketed, func(r schema.Row) bool { return want[r[mi].StrVal()] })
	}
	return sproc.Pivot(bucketed, []string{"window", "system", "component"}, "metric", "value", sproc.AggAvg)
}

func conformsObservation(f *schema.Frame) error {
	if !f.Schema().Equal(schema.ObservationSchema) {
		return fmt.Errorf("medallion: expected observation schema, got %s", f.Schema())
	}
	return nil
}

// Contextualize joins wide Silver rows with the resource manager's
// allocation log (the paper's "integrated with additional datasets (such
// as job allocation logs) for contextualization"). Rows gain job_id,
// user, project, and program columns; idle components get nulls.
//
// The component column must name nodes as "node%05d" (the telemetry
// convention); non-node components are passed through with null context.
func Contextualize(wide *schema.Frame, sched *jobsched.Schedule) (*schema.Frame, error) {
	sch := wide.Schema()
	wIdx, ok := sch.Index("window")
	if !ok {
		return nil, fmt.Errorf("medallion: contextualize needs a window column")
	}
	cIdx, ok := sch.Index("component")
	if !ok {
		return nil, fmt.Errorf("medallion: contextualize needs a component column")
	}
	ns, err := sch.Extend(
		schema.Field{Name: "job_id", Kind: schema.KindString},
		schema.Field{Name: "user", Kind: schema.KindString},
		schema.Field{Name: "project", Kind: schema.KindString},
		schema.Field{Name: "program", Kind: schema.KindString},
	)
	if err != nil {
		return nil, err
	}
	out := schema.NewFrame(ns)
	for r := 0; r < wide.Len(); r++ {
		row := wide.Row(r)
		ctxRow := append(row, schema.Null, schema.Null, schema.Null, schema.Null)
		node, ok := parseNode(row[cIdx].StrVal())
		if ok && sched != nil {
			if j := sched.JobAt(node, row[wIdx].TimeVal()); j != nil {
				ctxRow[len(row)] = schema.Str(j.ID)
				ctxRow[len(row)+1] = schema.Str(j.User)
				ctxRow[len(row)+2] = schema.Str(j.Project)
				ctxRow[len(row)+3] = schema.Str(j.Program)
			}
		}
		if err := out.AppendRow(ctxRow); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parseNode extracts the node index from a "node%05d" component name.
func parseNode(component string) (int, bool) {
	if len(component) < 5 || component[:4] != "node" {
		return 0, false
	}
	n := 0
	for _, c := range component[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}
