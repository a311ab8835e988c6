package telemetry

import (
	"fmt"
	"time"

	"odakit/internal/schema"
)

// Anomaly injection: the paper's §VIII-A names "rare events" as one of
// the properties that starve ML development. Injected anomalies give the
// synthetic facility reproducible rare events: detection tools (copacetic,
// UA dashboards) and ML pipelines can be tested against known incidents
// with exact ground truth.

// AnomalyKind classifies an injected incident.
type AnomalyKind int

// The supported incident classes.
const (
	// AnomalyThermalRunaway drives a node's temperatures up ~30C over the
	// incident and raises power draw (a failing pump / blocked coldplate).
	AnomalyThermalRunaway AnomalyKind = iota
	// AnomalySensorFlatline freezes a node's sensors at their value from
	// the incident start — the classic stuck-sensor data-quality failure.
	AnomalySensorFlatline
	// AnomalyGPUFailureBurst emits a burst of GPU xid error events from
	// the node (the double-bit-error storms of the paper's GPU dataset).
	AnomalyGPUFailureBurst
)

// String names the kind.
func (k AnomalyKind) String() string {
	switch k {
	case AnomalyThermalRunaway:
		return "thermal_runaway"
	case AnomalySensorFlatline:
		return "sensor_flatline"
	case AnomalyGPUFailureBurst:
		return "gpu_failure_burst"
	default:
		return fmt.Sprintf("anomaly(%d)", int(k))
	}
}

// Anomaly is one injected incident on one node.
type Anomaly struct {
	Kind  AnomalyKind
	Node  int
	Start time.Time
	End   time.Time
}

// active reports whether the anomaly covers (node, t).
func (a Anomaly) active(node int, t time.Time) bool {
	return a.Node == node && !t.Before(a.Start) && t.Before(a.End)
}

// progress returns how far through the incident t is, in [0, 1].
func (a Anomaly) progress(t time.Time) float64 {
	span := a.End.Sub(a.Start)
	if span <= 0 {
		return 1
	}
	p := float64(t.Sub(a.Start)) / float64(span)
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}

// applyAnomalies post-processes a power_temp reading for active incidents.
// Called from EmitSource; returns the possibly modified value.
func (g *Generator) applyAnomalies(node int, metric string, tick time.Time, v float64) float64 {
	for _, a := range g.cfg.Anomalies {
		if !a.active(node, tick) {
			continue
		}
		switch a.Kind {
		case AnomalyThermalRunaway:
			p := a.progress(tick)
			switch metric {
			case "cpu_temp_c", "gpu_temp_c":
				// Loss of cooling: +55C at full progress drives the part
				// beyond any normal operating temperature, busy or idle.
				v += 55 * p
			case "node_power_w":
				v *= 1 + 0.10*p // leakage current rises with temperature
			}
		case AnomalySensorFlatline:
			// Freeze at the value the sensor had when it stuck. The
			// generator is a pure function, so "the value at Start" is
			// recomputable exactly.
			if metric == "node_power_w" || metric == "cpu_temp_c" || metric == "gpu_temp_c" {
				frozen := g.sampleClean(SourcePowerTemp, node, metricIndexPowerTemp(metric), a.Start.Truncate(g.cfg.PowerInterval))
				return frozen
			}
		case AnomalyGPUFailureBurst:
			// Power dips as the failing GPU drops off the bus.
			if metric == "node_power_w" {
				v *= 0.85
			}
		}
	}
	return v
}

// metricIndexPowerTemp maps a power_temp metric name back to its metric
// index in the generator (used to recompute a frozen value).
func metricIndexPowerTemp(name string) int {
	switch name {
	case "node_power_w":
		return 0
	case "cpu_temp_c":
		return 6
	case "gpu_temp_c":
		return 7
	default:
		return 0
	}
}

// sampleClean computes a reading without anomaly post-processing.
func (g *Generator) sampleClean(src Source, comp, m int, tick time.Time) float64 {
	k := sampleKey{g.componentStreams(hashStr(string(src)), comp), uint64(m), uint64(tick.UnixNano())}
	_, v := g.sampleBase(src, comp, m, k, g.componentLoad(src, comp, tick), 0)
	return v
}

// anomalyEvents yields the extra syslog events of burst-type anomalies
// within [from, to), in time order per node.
func (g *Generator) anomalyEvents(from, to time.Time, sink func(schema.Event) error) error {
	for _, a := range g.cfg.Anomalies {
		if a.Kind != AnomalyGPUFailureBurst {
			continue
		}
		start, end := a.Start, a.End
		if start.Before(from) {
			start = from
		}
		if end.After(to) {
			end = to
		}
		// One xid error every 20 seconds during the burst.
		for tick := start.Truncate(20 * time.Second); tick.Before(end); tick = tick.Add(20 * time.Second) {
			if tick.Before(start) {
				continue
			}
			h := hash64(g.sys, uint64(a.Node), uint64(tick.UnixNano()), 0xbad)
			ev := schema.Event{
				Ts: tick, System: g.cfg.Name, Source: string(SourceSyslog),
				Host: fmt.Sprintf("node%05d", a.Node), Severity: "error",
				Message: fmt.Sprintf("gpu xid error code=%d pid=%d", 48+int(h%16), int(h%30000)),
			}
			if err := sink(ev); err != nil {
				return err
			}
		}
	}
	return nil
}
