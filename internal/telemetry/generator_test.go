package telemetry

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"odakit/internal/jobsched"
	"odakit/internal/schema"
)

var (
	t0 = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	t1 = t0.Add(time.Minute)
)

func smallConfig(seed int64) SystemConfig {
	cfg := FrontierLike(seed).Scaled(16)
	return cfg
}

func testSchedule(t testing.TB, nodes int) *jobsched.Schedule {
	t.Helper()
	sim := jobsched.New(jobsched.Config{
		Nodes: nodes, System: "compass",
		Workload: jobsched.WorkloadConfig{Seed: 9, MeanInterarrival: 30 * time.Second},
	})
	return sim.Run(t0.Add(-2*time.Hour), t0.Add(2*time.Hour))
}

func TestScaledConfig(t *testing.T) {
	full := FrontierLike(1)
	small := full.Scaled(16)
	if small.Nodes != 16 {
		t.Fatalf("Nodes = %d", small.Nodes)
	}
	if small.StorageServers < 1 || small.StorageServers >= full.StorageServers {
		t.Fatalf("StorageServers = %d", small.StorageServers)
	}
	// Scaling up or to zero is a no-op.
	if got := full.Scaled(0).Nodes; got != full.Nodes {
		t.Fatalf("Scaled(0) changed nodes to %d", got)
	}
	if got := full.Scaled(99999).Nodes; got != full.Nodes {
		t.Fatalf("Scaled(too big) changed nodes to %d", got)
	}
}

func TestSpecsCoverAllMetricSources(t *testing.T) {
	cfg := FrontierLike(1)
	specs := cfg.Specs()
	if len(specs) != len(MetricSources) {
		t.Fatalf("%d specs for %d sources", len(specs), len(MetricSources))
	}
	for _, src := range MetricSources {
		sp, ok := cfg.Spec(src)
		if !ok {
			t.Fatalf("no spec for %s", src)
		}
		if sp.RecordsPerDay() <= 0 {
			t.Fatalf("source %s has nonpositive record rate", src)
		}
	}
	if _, ok := cfg.Spec(Source("bogus")); ok {
		t.Fatal("bogus source should have no spec")
	}
}

func TestFullScaleVolumeMatchesPaper(t *testing.T) {
	// The paper reports 4.2-4.5 TB/day across the data center and about
	// 0.5 TB/day for Frontier power data. With ~60 B/record (measured by
	// the codec bench) our full-scale configs must land in that band.
	const bytesPerRecord = 60.0
	compass, mountain := FrontierLike(1), SummitLike(1)
	var total float64
	for _, cfg := range []SystemConfig{compass, mountain} {
		for _, sp := range cfg.Specs() {
			total += sp.RecordsPerDay() * bytesPerRecord
		}
	}
	tb := total / 1e12
	if tb < 3.5 || tb > 5.5 {
		t.Fatalf("full-scale volume = %.2f TB/day, want ~4.2-4.5", tb)
	}
	pt, _ := compass.Spec(SourcePowerTemp)
	ptTB := pt.RecordsPerDay() * bytesPerRecord / 1e12
	if ptTB < 0.3 || ptTB > 0.8 {
		t.Fatalf("compass power_temp = %.2f TB/day, want ~0.5", ptTB)
	}
}

func TestEmitDeterministicAndOrderIndependent(t *testing.T) {
	cfg := smallConfig(5)
	sched := testSchedule(t, cfg.Nodes)
	g := NewGenerator(cfg, sched)

	a, err := g.CollectSource(SourcePowerTemp, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.CollectSource(SourcePowerTemp, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Regenerating a sub-window yields exactly the matching slice of
	// samples: the pure-function property behind pipeline recovery tests.
	mid := t0.Add(30 * time.Second)
	second, err := g.CollectSource(SourcePowerTemp, mid, t1)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) == 0 {
		t.Fatal("sub-window emitted nothing")
	}
	offset := len(a) - len(second)
	for i := range second {
		if a[offset+i] != second[i] {
			t.Fatalf("sub-window sample %d differs: %+v vs %+v", i, a[offset+i], second[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg1, cfg2 := smallConfig(1), smallConfig(2)
	g1, g2 := NewGenerator(cfg1, nil), NewGenerator(cfg2, nil)
	a, _ := g1.CollectSource(SourcePowerTemp, t0, t0.Add(5*time.Second))
	b, _ := g2.CollectSource(SourcePowerTemp, t0, t0.Add(5*time.Second))
	same := 0
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical telemetry")
	}
}

func TestLossRateApproximatelyHolds(t *testing.T) {
	cfg := smallConfig(3)
	cfg.LossRate = 0.2
	g := NewGenerator(cfg, nil)
	obs, err := g.CollectSource(SourcePowerTemp, t0, t0.Add(2*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := cfg.Spec(SourcePowerTemp)
	expected := float64(spec.Components*spec.Metrics) * 120 / spec.Interval.Seconds()
	got := float64(len(obs))
	frac := 1 - got/expected
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("observed loss fraction %.3f, want ~0.2", frac)
	}
}

func TestNoLossWhenRateZero(t *testing.T) {
	cfg := smallConfig(4)
	cfg.LossRate = 0
	g := NewGenerator(cfg, nil)
	obs, _ := g.CollectSource(SourceGPU, t0, t1)
	spec, _ := cfg.Spec(SourceGPU)
	want := spec.Components * spec.Metrics * int(time.Minute/spec.Interval)
	if len(obs) != want {
		t.Fatalf("got %d observations, want %d", len(obs), want)
	}
}

func TestIdleMachinePower(t *testing.T) {
	cfg := smallConfig(6)
	g := NewGenerator(cfg, nil) // no load
	for n := 0; n < cfg.Nodes; n++ {
		if p := g.NodePower(n, t0); p != cfg.IdlePowerW {
			t.Fatalf("idle node %d power = %v, want %v", n, p, cfg.IdlePowerW)
		}
	}
	if tp := g.TotalPower(t0); math.Abs(tp-float64(cfg.Nodes)*cfg.IdlePowerW) > 1e-6 {
		t.Fatalf("total idle power = %v", tp)
	}
}

func TestBusyNodeDrawsMorePower(t *testing.T) {
	cfg := smallConfig(7)
	sched := testSchedule(t, cfg.Nodes)
	g := NewGenerator(cfg, sched)
	// Find a moment with a running job and check its nodes draw above idle.
	found := false
	for ts := t0; ts.Before(t0.Add(time.Hour)) && !found; ts = ts.Add(time.Minute) {
		for _, j := range sched.Running(ts) {
			if j.Profile == jobsched.ProfileIdleish || ts.Sub(j.Start) < 2*time.Minute {
				continue
			}
			for _, n := range j.NodeList {
				if g.NodePower(n, ts) > cfg.IdlePowerW*1.02 {
					found = true
					break
				}
			}
		}
	}
	if !found {
		t.Fatal("no busy node drew more than idle power")
	}
	for n := 0; n < cfg.Nodes; n++ {
		for ts := t0; ts.Before(t0.Add(10 * time.Minute)); ts = ts.Add(time.Minute) {
			p := g.NodePower(n, ts)
			if p < cfg.IdlePowerW-1e-9 || p > cfg.MaxPowerW+1e-9 {
				t.Fatalf("node %d power %v outside [idle,max]", n, p)
			}
		}
	}
}

func TestProfileShapeBounds(t *testing.T) {
	for k := 0; k < jobsched.NumProfileKinds; k++ {
		kind := jobsched.ProfileKind(k)
		for s := 0; s < 3600; s += 7 {
			v := ProfileShape(kind, time.Duration(s)*time.Second, 90*time.Second, 0.37)
			if v < 0 || v > 1 {
				t.Fatalf("shape %v at %ds = %v outside [0,1]", kind, s, v)
			}
		}
		if ProfileShape(kind, -time.Second, time.Minute, 0) != 0 {
			t.Fatalf("shape %v before start should be 0", kind)
		}
	}
}

func TestProfileShapesAreDistinguishable(t *testing.T) {
	// Mean levels and variances must differ across classes or the Fig 10
	// clustering experiment has no signal. Check a few pairs.
	mean := func(kind jobsched.ProfileKind) float64 {
		sum := 0.0
		n := 0
		for s := 120; s < 3600; s += 5 {
			sum += ProfileShape(kind, time.Duration(s)*time.Second, 90*time.Second, 0.2)
			n++
		}
		return sum / float64(n)
	}
	idle, steady := mean(jobsched.ProfileIdleish), mean(jobsched.ProfileSteady)
	if steady-idle < 0.5 {
		t.Fatalf("steady (%.2f) and idleish (%.2f) too close", steady, idle)
	}
	if d := mean(jobsched.ProfileDecay); d > steady {
		t.Fatalf("decay mean %.2f should sit below steady %.2f", d, steady)
	}
}

func TestSkewIsBoundedAndStable(t *testing.T) {
	cfg := smallConfig(8)
	g := NewGenerator(cfg, nil)
	for comp := 0; comp < 10; comp++ {
		s1 := g.skew(hashStr(string(SourcePowerTemp)), comp)
		s2 := g.skew(hashStr(string(SourcePowerTemp)), comp)
		if s1 != s2 {
			t.Fatal("skew must be a fixed per-component offset")
		}
		if s1 < 0 || s1 >= cfg.SkewMax {
			t.Fatalf("skew %v outside [0, %v)", s1, cfg.SkewMax)
		}
	}
}

func TestComponentNames(t *testing.T) {
	cfg := smallConfig(9)
	g := NewGenerator(cfg, nil)
	if got := g.components(SourceGPU, 2*cfg.GPUsPerNode)[cfg.GPUsPerNode+2].name; got != "node00001.gpu2" {
		t.Fatalf("gpu component = %q", got)
	}
	if got := g.components(SourcePowerTemp, 4)[3].name; got != "node00003" {
		t.Fatalf("node component = %q", got)
	}
	if got := g.components(SourceFacility, 2)[1].name; got != "cep0001" {
		t.Fatalf("facility component = %q", got)
	}
	// A number wider than its padding prints whole, as %05d does.
	for _, v := range []int{0, 7, 42, 9999, 12345, 123456} {
		if got, want := string(appendPadded([]byte("node"), v, 5)), fmt.Sprintf("node%05d", v); got != want {
			t.Fatalf("appendPadded(%d) = %q, want %q", v, got, want)
		}
	}
}

func TestFacilityReturnTempTracksLoad(t *testing.T) {
	cfg := smallConfig(10)
	cfg.NoiseFrac = 0
	cfg.LossRate = 0
	cfg.FacilitySensors = len(facilityKinds) // one sensor of each kind
	sched := testSchedule(t, cfg.Nodes)
	gBusy := NewGenerator(cfg, sched)
	gIdle := NewGenerator(cfg, nil)
	// Pick a time when utilization is high.
	var busyT time.Time
	for ts := t0; ts.Before(t0.Add(time.Hour)); ts = ts.Add(5 * time.Minute) {
		if sched.Utilization(ts) > 0.3 {
			busyT = ts
			break
		}
	}
	if busyT.IsZero() {
		t.Skip("no busy window at this seed")
	}
	get := func(g *Generator) float64 {
		obs, err := g.CollectSource(SourceFacility, busyT, busyT.Add(cfg.FacilityInterval))
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range obs {
			if o.Metric == "return_temp_c" {
				return o.Value
			}
		}
		t.Fatal("no return_temp_c sample")
		return 0
	}
	if rb, ri := get(gBusy), get(gIdle); rb <= ri {
		t.Fatalf("busy return temp %.2f should exceed idle %.2f", rb, ri)
	}
}

func TestEventsDeterministicOrderedPlausible(t *testing.T) {
	cfg := smallConfig(11)
	g := NewGenerator(cfg, nil)
	evs, err := g.CollectEvents(t0, t0.Add(30*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	evs2, _ := g.CollectEvents(t0, t0.Add(30*time.Minute))
	if len(evs) != len(evs2) {
		t.Fatalf("event counts differ: %d vs %d", len(evs), len(evs2))
	}
	for i := range evs {
		if evs[i] != evs2[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	counts := map[string]int{}
	for _, e := range evs {
		counts[e.Severity]++
		if e.Source != "syslog" || e.System != cfg.Name || e.Message == "" {
			t.Fatalf("malformed event %+v", e)
		}
	}
	if counts["info"] <= counts["error"] {
		t.Fatalf("info (%d) should dominate error (%d)", counts["info"], counts["error"])
	}
}

func TestEmitUnknownSource(t *testing.T) {
	g := NewGenerator(smallConfig(12), nil)
	err := g.EmitSource(Source("nope"), t0, t1, func(schema.Observation) error { return nil })
	if err == nil {
		t.Fatal("unknown source should error")
	}
}

func TestSinkErrorAborts(t *testing.T) {
	g := NewGenerator(smallConfig(13), nil)
	calls := 0
	sentinel := errSentinel{}
	err := g.EmitSource(SourcePowerTemp, t0, t1, func(schema.Observation) error {
		calls++
		return sentinel
	})
	if err == nil || calls != 1 {
		t.Fatalf("err=%v calls=%d, want sentinel after 1 call", err, calls)
	}
}

type errSentinel struct{}

func (errSentinel) Error() string { return "sentinel" }

func TestEverySourceEmitsPlausibleValues(t *testing.T) {
	cfg := smallConfig(33)
	cfg.LossRate = 0
	cfg.FacilitySensors = 2 * len(facilityKinds)
	sched := testSchedule(t, cfg.Nodes)
	g := NewGenerator(cfg, sched)
	if g.Config().Name != cfg.Name {
		t.Fatal("Config accessor wrong")
	}
	for _, src := range MetricSources {
		spec, _ := cfg.Spec(src)
		obs, err := g.CollectSource(src, t0, t0.Add(spec.Interval*2))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if len(obs) == 0 {
			t.Fatalf("%s emitted nothing", src)
		}
		seenMetrics := map[string]bool{}
		for _, o := range obs {
			if o.System != cfg.Name || o.Source != string(src) || o.Component == "" || o.Metric == "" {
				t.Fatalf("%s: malformed observation %+v", src, o)
			}
			if math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
				t.Fatalf("%s/%s: non-finite value", src, o.Metric)
			}
			seenMetrics[o.Metric] = true
			// Percent metrics stay within [0, 100].
			if len(o.Metric) > 4 && o.Metric[len(o.Metric)-4:] == "_pct" {
				if o.Value < 0 || o.Value > 100 {
					t.Fatalf("%s/%s = %v outside [0,100]", src, o.Metric, o.Value)
				}
			}
		}
		if len(seenMetrics) != spec.Metrics && src != SourceFacility {
			t.Fatalf("%s metrics = %d, spec says %d", src, len(seenMetrics), spec.Metrics)
		}
	}
	// Facility components cycle through the sensor kinds.
	obs, _ := g.CollectSource(SourceFacility, t0, t0.Add(cfg.FacilityInterval))
	kinds := map[string]bool{}
	for _, o := range obs {
		kinds[o.Metric] = true
	}
	if len(kinds) != len(facilityKinds) {
		t.Fatalf("facility kinds = %d, want %d", len(kinds), len(facilityKinds))
	}
}

func TestBackgroundLoadDiurnal(t *testing.T) {
	cfg := smallConfig(35)
	cfg.LossRate = 0
	cfg.NoiseFrac = 0
	g := NewGenerator(cfg, nil)
	// Server-side load peaks mid-afternoon vs early morning.
	at := func(hour int) float64 {
		ts := time.Date(2024, 6, 1, hour, 0, 0, 0, time.UTC)
		obs, err := g.CollectSource(SourceStorageSystem, ts, ts.Add(cfg.StorageInterval))
		if err != nil || len(obs) == 0 {
			t.Fatalf("no storage server samples: %v", err)
		}
		sum := 0.0
		for _, o := range obs {
			sum += o.Value
		}
		return sum
	}
	if afternoon, dawn := at(15), at(3); afternoon <= dawn {
		t.Fatalf("diurnal pattern missing: 15h load %v <= 3h load %v", afternoon, dawn)
	}
}

// emitWindow is a window of src long enough to emit at least minRecords
// records at the generator's scale, so what an EmitSource call spends
// once (its component names) is amortized whatever the source's size.
func emitWindow(cfg SystemConfig, src Source, minRecords int) time.Duration {
	spec, _ := cfg.Spec(src)
	return spec.Interval * time.Duration(minRecords/(spec.Components*spec.Metrics)+1)
}

// TestEmitSourceAllocs bounds what generating a record allocates: nothing
// per record. An EmitSource call builds its source's component names
// once, so over a window of 10 000 records or more that is at most 0.01
// allocations per record, on every source.
func TestEmitSourceAllocs(t *testing.T) {
	cfg := smallConfig(14)
	g := NewGenerator(cfg, testSchedule(t, cfg.Nodes))
	for _, src := range MetricSources {
		win := emitWindow(cfg, src, 10000)
		var n int
		sink := func(schema.Observation) error { n++; return nil }
		allocs := testing.AllocsPerRun(2, func() {
			if err := g.EmitSource(src, t0, t0.Add(win), sink); err != nil {
				t.Fatal(err)
			}
		})
		perRecord := allocs * 3 / float64(n) // AllocsPerRun runs 3 windows
		t.Logf("%s: %.0f allocations per window of %d records", src, allocs, n/3)
		if perRecord > 0.01 {
			t.Errorf("%s: %.4f allocations per record, want at most 0.01", src, perRecord)
		}
	}
}

// TestGeneratorConcurrentEmitIdentical emits one window from one Generator
// on four goroutines at once: a generator keeps no mutable state, so all
// four get the same records as a lone caller does. Run under -race.
func TestGeneratorConcurrentEmitIdentical(t *testing.T) {
	g, from, _ := digestGenerator(t)
	to := from.Add(20 * time.Second)
	for _, src := range MetricSources {
		want, err := g.CollectSource(src, from, to)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]schema.Observation, 4)
		errs := make([]error, len(got))
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = g.CollectSource(src, from, to)
			}()
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !slices.Equal(got[i], want) {
				t.Fatalf("%s: goroutine %d emitted %d records that differ from a lone caller's %d", src, i, len(got[i]), len(want))
			}
		}
	}
}

// BenchmarkEmitSource generates each metric source of a 64-node system
// under a job schedule, a window of at least 10 000 records per op
// stepping through the schedule, and reports what one record costs.
func BenchmarkEmitSource(b *testing.B) {
	cfg := FrontierLike(1).Scaled(64)
	g := NewGenerator(cfg, testSchedule(b, cfg.Nodes))
	for _, src := range MetricSources {
		b.Run(string(src), func(b *testing.B) {
			win := emitWindow(cfg, src, 10000)
			var n int64
			sink := func(schema.Observation) error { n++; return nil }
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				from := t0.Add(time.Duration(i%16) * win)
				if err := g.EmitSource(src, from, from.Add(win), sink); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/record")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(n), "allocs/record")
		})
	}
}
