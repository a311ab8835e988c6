package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"
	"time"

	"odakit/internal/schema"
)

// digestGenerator is a small system with every pathology on: a job
// schedule (jobs start and end inside the window, so a node's load shape
// changes under the generator), sample loss, clock skew, sensor noise, and
// one anomaly of each kind inside the window (a flatline that starts off a
// tick, so sampleClean recomputes the frozen value; a GPU burst, so the
// event stream carries incident lines).
func digestGenerator(t testing.TB) (*Generator, time.Time, time.Time) {
	cfg := smallConfig(21)
	cfg.Anomalies = []Anomaly{
		{Kind: AnomalyThermalRunaway, Node: 2, Start: t0.Add(20 * time.Second), End: t0.Add(100 * time.Second)},
		{Kind: AnomalySensorFlatline, Node: 5, Start: t0.Add(10*time.Second + 300*time.Millisecond), End: t0.Add(150 * time.Second)},
		{Kind: AnomalyGPUFailureBurst, Node: 7, Start: t0.Add(30 * time.Second), End: t0.Add(130 * time.Second)},
	}
	return NewGenerator(cfg, testSchedule(t, cfg.Nodes)), t0, t0.Add(3 * time.Minute)
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// TestGeneratorOutputDigests pins every bit the generator emits: one
// sha256 per metric source and one for the event stream, over a fixed
// window of digestGenerator. Replay, pipeline recovery and every pinned
// downstream digest rest on these bits, so a change to how the generator
// computes a record must leave them where they are.
func TestGeneratorOutputDigests(t *testing.T) {
	g, from, to := digestGenerator(t)
	want := map[Source]string{
		SourcePowerTemp:     "1fdfb63bcc4f8b27015c566e038325ef62f6ceb8953638f9373761d207c1f8a0",
		SourcePerfCounters:  "9cf55e6003b94ff45d360102266f8160e6c7d6a2bce0b9dde9c5fb679bdd41ce",
		SourceGPU:           "2ac3ead3e52abc4f7efed131d8f0b7458319f500bf9b4c5f21744f0707300c1a",
		SourceStorageClient: "6aaeb1e5db2ec8fc43902dc03b8daa7910c0ac84fc3b135ec976d0cfbd483352",
		SourceFabricClient:  "9202ed28f16462b4d1f9e82f6b0ff9945437fbfaed3b8ab768ef5350b340ddc9",
		SourceStorageSystem: "c179701dac0895450219658f19de8de33f83b7ba7dd016d464bea3cfb66e5c4a",
		SourceFabric:        "f47429a8cf6a30e8952b1b3f5580b285156ba76902e73ba6240bda0657cfff00",
		SourceFacility:      "100e5238179ab3b942dd01502308d6fc048146206c3d19cf0db8f39314013d40",
		SourceSyslog:        "6b785fc3d910dab62663ddfcb812ea7537501d4db3cabc763fec72874207977e",
	}
	for _, src := range MetricSources {
		h, n := sha256.New(), 0
		err := g.EmitSource(src, from, to, func(o schema.Observation) error {
			n++
			_, err := fmt.Fprintf(h, "%d|%s|%s|%s|%s|%x\n", o.Ts.UnixNano(), o.System, o.Source, o.Component, o.Metric, math.Float64bits(o.Value))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := hexSum(h); got != want[src] {
			t.Errorf("%s: %d records, sha256 = %s, want %s", src, n, got, want[src])
		}
	}
	h, n := sha256.New(), 0
	err := g.EmitEvents(from, to, func(e schema.Event) error {
		n++
		_, err := fmt.Fprintf(h, "%d|%s|%s|%s|%s|%s\n", e.Ts.UnixNano(), e.System, e.Source, e.Host, e.Severity, e.Message)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := hexSum(h); got != want[SourceSyslog] {
		t.Errorf("events: %d events, sha256 = %s, want %s", n, got, want[SourceSyslog])
	}
}
