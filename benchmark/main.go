// Command benchmark is odakit's end-to-end harness: it pushes seeded
// telemetry through the real path — schema encode → STREAM → (quorum +
// WAL) → LAKE → CQ pump → httpapi behind the gateway on a loopback
// socket — measures it from outside, checks the answers, and prints one
// JSON result line. See README.md.
//
//	bash benchmark/run.sh --workload ingest_local --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -compare runsA.jsonl runsB.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Int64("seed", 1, "seed for the telemetry pool and the query mix")
		seconds  = flag.Float64("seconds", runSeconds, "how long the timed region measures")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, trace file, peel ladder")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for history.jsonl and trace files")
		tmpDir   = flag.String("tmp", filepath.Join(".bench_build", "run"), "scratch directory inside the checkout")
		compare  = flag.Bool("compare", false, "compare two run sets: -compare runsA.jsonl runsB.jsonl")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json as generated from the metric tables")
	)
	flag.Parse()

	switch {
	case *spec:
		fmt.Println(marshalIndent(benchmarkSpec()))
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare <runsA.jsonl> <runsB.jsonl>")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *workload == "":
		fmt.Fprintln(os.Stderr, "benchmark: --workload is required (one of: "+workloadNames()+")")
		return 2
	case *seconds <= 0:
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive")
		return 2
	}

	runtime.GOMAXPROCS(benchProcs)
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		outDir: *outDir, tmpDir: *tmpDir,
	}
	line, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

// execute runs one workload, records it, and returns the driver's line.
// Everything for people goes to standard error; the caller prints the
// JSON line last on standard output.
func execute(cfg runConfig) (resultLine, error) {
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		return resultLine{}, err
	}
	// A directory of this run's own, so two runs in one checkout never
	// share WAL files.
	tmp, err := os.MkdirTemp(cfg.tmpDir, "run-")
	if err != nil {
		return resultLine{}, err
	}
	cfg.tmpDir = tmp
	defer os.RemoveAll(tmp)
	prov := newProvenance(cfg.seed, cfg.seconds, cfg.trace)
	out, err := runWorkload(cfg, &prov)
	if err != nil {
		return resultLine{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	correct := len(out.gateErrs) == 0
	for _, e := range out.gateErrs {
		fmt.Fprintln(os.Stderr, "GATE FAILED:", e)
	}
	out.failed += int64(len(out.gateErrs))
	if out.attempted < 1 {
		out.attempted = 1
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	printTable(os.Stderr, fmt.Sprintf("%s seed=%d seconds=%g trace=%v", cfg.workload, cfg.seed, cfg.seconds, cfg.trace),
		out.m, append(append([]metricDef(nil), endToEnd...), perLayer...))
	for _, row := range out.ladder {
		fmt.Fprintf(os.Stderr, "  ladder %-36s %10.1f ns/record  %+10.1f  (%d batches)\n",
			row.Rung, row.NsPerRecord, row.Delta, row.Batches)
	}
	if v, ok := out.notes["loadgen_valid"]; ok && v == false {
		fmt.Fprintln(os.Stderr, "WARNING: load generator ran late or off-rate; see loadgen.* (run recorded as invalid)")
	}

	row := historyRow{
		Provenance: prov, Workload: cfg.workload, Correct: correct,
		Attempted: out.attempted, Failed: out.failed, Metrics: out.m,
		GateErrors: out.gateErrs, Notes: out.notes,
	}
	if err := appendHistory(cfg.historyPath(), row); err != nil {
		return resultLine{}, fmt.Errorf("history: %w", err)
	}
	if err := writeTrace(cfg.outDir, cfg.workload, prov, out.tracer, out.ladder); err != nil {
		return resultLine{}, fmt.Errorf("trace file: %w", err)
	}
	return resultLine{
		Correct: correct, Attempted: out.attempted, Failed: out.failed,
		Metrics: out.m.project(defs),
	}, nil
}
