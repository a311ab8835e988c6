package cluster

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"odakit/internal/obs"
	"odakit/internal/stream"
)

// TestClusterMetricsGolden locks the oda_cluster_* exposition — family
// names, help text, label sets, and every value of a deterministic
// cluster state — against a golden file. Regenerate with
// ODA_UPDATE_GOLDEN=1 go test.
func TestClusterMetricsGolden(t *testing.T) {
	c := build(t, 3, Config{RF: 2})
	if err := c.CreateTopic("telemetry", stream.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20240601))
	for b := 0; b < 4; b++ {
		if _, err := c.PublishBatch("telemetry", keyedMsgs(rng, b, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Kill("n3"); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	c.Instrument(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePrometheus(buf.String()); err != nil {
		t.Fatalf("exposition is not valid Prometheus text: %v", err)
	}

	got := buf.String()
	golden := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("ODA_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with ODA_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("oda_cluster_* exposition diverged from golden.\nGot:\n%s\nWant:\n%s", got, want)
	}
}
