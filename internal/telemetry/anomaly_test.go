package telemetry

import (
	"testing"
	"time"

	"odakit/internal/schema"
)

func anomalyConfig(seed int64, a ...Anomaly) SystemConfig {
	cfg := FrontierLike(seed).Scaled(8)
	cfg.LossRate = 0
	cfg.SkewMax = 0
	cfg.NoiseFrac = 0
	cfg.Anomalies = a
	return cfg
}

func metricSeries(t *testing.T, g *Generator, node int, metric string, from, to time.Time) []float64 {
	t.Helper()
	var out []float64
	comp := g.components(SourcePowerTemp, node+1)[node].name
	err := g.EmitSource(SourcePowerTemp, from, to, func(o schema.Observation) error {
		if o.Component == comp && o.Metric == metric {
			out = append(out, o.Value)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAnomalyKindStrings(t *testing.T) {
	want := map[AnomalyKind]string{
		AnomalyThermalRunaway:  "thermal_runaway",
		AnomalySensorFlatline:  "sensor_flatline",
		AnomalyGPUFailureBurst: "gpu_failure_burst",
	}
	for k, w := range want {
		if k.String() != w {
			t.Fatalf("%d = %q want %q", k, k.String(), w)
		}
	}
	if AnomalyKind(9).String() != "anomaly(9)" {
		t.Fatal("unknown kind fallback wrong")
	}
}

func TestThermalRunawayRaisesTemps(t *testing.T) {
	a := Anomaly{Kind: AnomalyThermalRunaway, Node: 3, Start: t0.Add(time.Minute), End: t0.Add(3 * time.Minute)}
	clean := NewGenerator(anomalyConfig(21), nil)
	dirty := NewGenerator(anomalyConfig(21, a), nil)

	before := metricSeries(t, dirty, 3, "gpu_temp_c", t0, t0.Add(time.Minute))
	cleanEnd := metricSeries(t, clean, 3, "gpu_temp_c", t0.Add(2*time.Minute+50*time.Second), t0.Add(3*time.Minute))
	dirtyEnd := metricSeries(t, dirty, 3, "gpu_temp_c", t0.Add(2*time.Minute+50*time.Second), t0.Add(3*time.Minute))
	if len(cleanEnd) == 0 || len(dirtyEnd) == 0 {
		t.Fatal("no samples")
	}
	// Before the incident the generators agree exactly.
	cleanBefore := metricSeries(t, clean, 3, "gpu_temp_c", t0, t0.Add(time.Minute))
	for i := range before {
		if before[i] != cleanBefore[i] {
			t.Fatal("pre-incident readings diverged")
		}
	}
	// Near the end of the incident, temperature is ~55C above clean.
	delta := dirtyEnd[len(dirtyEnd)-1] - cleanEnd[len(cleanEnd)-1]
	if delta < 48 || delta > 58 {
		t.Fatalf("runaway delta = %.1f C, want ~55", delta)
	}
	// Power rises too.
	cp := metricSeries(t, clean, 3, "node_power_w", t0.Add(2*time.Minute+55*time.Second), t0.Add(3*time.Minute))
	dp := metricSeries(t, dirty, 3, "node_power_w", t0.Add(2*time.Minute+55*time.Second), t0.Add(3*time.Minute))
	if dp[len(dp)-1] <= cp[len(cp)-1] {
		t.Fatal("runaway should raise power draw")
	}
	// Other nodes are untouched.
	co := metricSeries(t, clean, 4, "gpu_temp_c", t0.Add(2*time.Minute), t0.Add(3*time.Minute))
	do := metricSeries(t, dirty, 4, "gpu_temp_c", t0.Add(2*time.Minute), t0.Add(3*time.Minute))
	for i := range co {
		if co[i] != do[i] {
			t.Fatal("anomaly leaked to another node")
		}
	}
}

func TestSensorFlatline(t *testing.T) {
	a := Anomaly{Kind: AnomalySensorFlatline, Node: 2, Start: t0.Add(time.Minute), End: t0.Add(4 * time.Minute)}
	g := NewGenerator(anomalyConfig(23, a), nil)
	series := metricSeries(t, g, 2, "node_power_w", t0.Add(time.Minute), t0.Add(4*time.Minute))
	if len(series) < 10 {
		t.Fatalf("samples = %d", len(series))
	}
	for i := 1; i < len(series); i++ {
		if series[i] != series[0] {
			t.Fatalf("flatlined sensor moved: %v vs %v at %d", series[i], series[0], i)
		}
	}
	// After the incident the sensor unsticks.
	after := metricSeries(t, g, 2, "node_power_w", t0.Add(4*time.Minute), t0.Add(5*time.Minute))
	moved := false
	for i := 1; i < len(after); i++ {
		if after[i] != after[0] {
			moved = true
		}
	}
	// With zero noise and an idle machine the clean signal is constant
	// anyway, so only require: flat during is guaranteed above; after the
	// window the value equals the clean generator's.
	clean := NewGenerator(anomalyConfig(23), nil)
	cleanAfter := metricSeries(t, clean, 2, "node_power_w", t0.Add(4*time.Minute), t0.Add(5*time.Minute))
	for i := range after {
		if after[i] != cleanAfter[i] {
			t.Fatal("post-incident readings should match clean generator")
		}
	}
	_ = moved
}

func TestGPUFailureBurstEvents(t *testing.T) {
	a := Anomaly{Kind: AnomalyGPUFailureBurst, Node: 1, Start: t0.Add(time.Minute), End: t0.Add(3 * time.Minute)}
	g := NewGenerator(anomalyConfig(25, a), nil)
	events, err := g.CollectEvents(t0, t0.Add(5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	burst := 0
	for _, e := range events {
		if e.Host == "node00001" && e.Severity == "error" {
			burst++
			if e.Ts.Before(a.Start) || !e.Ts.Before(a.End) {
				// Background errors can also hit this node; only count
				// in-window ones strictly.
				burst--
			}
		}
	}
	// 2 minutes at one per 20s = ~6 events.
	if burst < 5 {
		t.Fatalf("burst events = %d, want ~6", burst)
	}
	// Power dips during the burst.
	clean := NewGenerator(anomalyConfig(25), nil)
	cp := metricSeries(t, clean, 1, "node_power_w", t0.Add(90*time.Second), t0.Add(100*time.Second))
	dp := metricSeries(t, g, 1, "node_power_w", t0.Add(90*time.Second), t0.Add(100*time.Second))
	if dp[0] >= cp[0] {
		t.Fatalf("burst should dip power: %v vs %v", dp[0], cp[0])
	}
}

func TestAnomaliesDeterministic(t *testing.T) {
	a := Anomaly{Kind: AnomalyThermalRunaway, Node: 0, Start: t0, End: t0.Add(2 * time.Minute)}
	g1 := NewGenerator(anomalyConfig(27, a), nil)
	g2 := NewGenerator(anomalyConfig(27, a), nil)
	s1 := metricSeries(t, g1, 0, "gpu_temp_c", t0, t0.Add(2*time.Minute))
	s2 := metricSeries(t, g2, 0, "gpu_temp_c", t0, t0.Add(2*time.Minute))
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("anomalous telemetry not deterministic")
		}
	}
}
