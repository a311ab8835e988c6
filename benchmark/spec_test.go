package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The tables in metrics.go must satisfy the driver's contract, and the
// committed BENCHMARK.json must be exactly what they generate.
func TestSpecMeetsContract(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not a valid name", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range endToEnd {
		check("end_to_end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s with unit s, better lower")
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not valid", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		check("per_layer", m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
}

func TestCommittedBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var committed, generated any
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(marshalIndent(benchmarkSpec())), &generated); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, generated) {
		t.Error("BENCHMARK.json differs from `go run . -spec`; regenerate it")
	}
}

func TestMetricSetRejectsUndeclaredNames(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("setting an undeclared metric did not panic")
		}
	}()
	metricSet{}.set("no.such.metric", 1)
}

func TestProjectEmitsExactlyTheDeclaredSet(t *testing.T) {
	m := metricSet{}
	m.set("setup_s", 1.5)
	m.set("cq.cells", 9)
	got := m.project(endToEnd)
	if len(got) != len(endToEnd) {
		t.Fatalf("projected %d metrics, want %d", len(got), len(endToEnd))
	}
	if got["setup_s"] != (metricValue{1.5, "s"}) {
		t.Errorf("setup_s = %+v", got["setup_s"])
	}
	if _, leaked := got["cq.cells"]; leaked {
		t.Error("a per-layer metric leaked into the end-to-end projection")
	}
}
