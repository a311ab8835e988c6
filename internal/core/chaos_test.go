package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"strconv"
	"testing"
	"time"

	"odakit/internal/faults"
	"odakit/internal/obs"
	"odakit/internal/plane"
	"odakit/internal/resilience"
	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/telemetry"
)

// The chaos integration test (make chaos): the full Bronze→Silver→Gold
// pipeline runs against infrastructure that fails 5–8% of the time, and
// must produce byte-identical output to a fault-free run, with poisoned
// records — and only those — quarantined to the DLQ.

// chaosSeed drives every injection decision; override with
// ODA_CHAOS_SEED to replay a failing schedule.
func chaosSeed() int64 {
	if v := os.Getenv("ODA_CHAOS_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return 20240601
}

// chaosRetry is aggressive enough to mask long runs of bad luck at the
// configured fault rates while keeping backoff in the microsecond range.
func chaosRetry() resilience.Policy {
	return resilience.Policy{
		MaxAttempts: 15, BaseDelay: 100 * time.Microsecond, MaxDelay: 2 * time.Millisecond,
	}
}

type pipelineOutput struct {
	silver   []byte
	profiles []byte
	series   []byte
	metrics  SilverMetrics
	trace    *obs.Span          // sampled root covering the whole run
	counters map[string]float64 // registry samples, snapshotted before Close
	promText string             // the /metrics exposition, ditto
}

// poisonRecord is one deliberately corrupt bronze record and where it
// landed.
type poisonRecord struct {
	payload   []byte
	partition int
	offset    int64
}

// runChaosPipeline executes ingest → silver drain → gold build on a
// fresh facility, optionally under fault injection and with poison
// records mixed into the bronze topic, then reads the persisted outputs
// back with fault hooks removed.
func runChaosPipeline(t *testing.T, inj *faults.Injector, poison [][]byte) (pipelineOutput, []poisonRecord) {
	t.Helper()
	sys := telemetry.FrontierLike(1).Scaled(12)
	sys.LossRate = 0
	sys.SkewMax = 0
	f, err := NewFacility(Options{
		System: sys, WorkloadSeed: 11,
		ScheduleFrom: t0.Add(-time.Hour), ScheduleTo: t0.Add(4 * time.Hour),
		RetryPolicy: chaosRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if inj != nil {
		inj.Install(f.Broker)
		inj.Install(f.Ocean)
		inj.Install(f.Lake)
	}

	// The whole run is traced: the sampled root's span tree must cover
	// the Bronze→Silver→Gold journey with stage latencies and chaos
	// annotations.
	ctx, root := f.Tracer.StartRoot(context.Background(), "pipeline")

	src := telemetry.SourcePowerTemp
	if _, err := f.IngestWindow(ctx, t0, t0.Add(2*time.Minute), src); err != nil {
		t.Fatalf("ingest under faults: %v (seed %d)", err, chaosSeed())
	}
	// Poison the topic: undecodable and non-conforming payloads, one per
	// partition in ascending order (the order the DLQ is read back in).
	var poisoned []poisonRecord
	for i, p := range poison {
		part := i % TopicPartitions
		var off int64
		err := resilience.Retry(context.Background(), chaosRetry(), func() error {
			var perr error
			off, perr = f.Broker.PublishBatchTo(BronzeTopic(src), part, []stream.Message{{Value: p}})
			return perr
		})
		if err != nil {
			t.Fatalf("poison publish: %v", err)
		}
		poisoned = append(poisoned, poisonRecord{payload: p, partition: part, offset: off})
	}

	m, err := f.DrainSilver(ctx, SilverPipelineConfig{Source: src})
	if err != nil {
		t.Fatalf("drain under faults: %v (seed %d)", err, chaosSeed())
	}
	ga, err := f.BuildGold(ctx, src, "node_power_w", 16)
	if err != nil {
		t.Fatalf("gold build under faults: %v (seed %d)", err, chaosSeed())
	}
	root.End()

	// Read the persisted truth back without fault hooks in the way.
	f.Broker.SetFaultHook(nil)
	f.Ocean.SetFaultHook(nil)
	f.Lake.SetFaultHook(nil)
	out := pipelineOutput{metrics: m, trace: root, counters: map[string]float64{}}
	for _, s := range f.Obs.Gather() {
		out.counters[s.Name] = s.Value
	}
	var prom bytes.Buffer
	if err := f.Obs.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out.promText = prom.String()
	if out.silver, _, err = f.Ocean.Get(BucketSilver, SilverObjectKey(src)); err != nil {
		t.Fatal(err)
	}
	if out.profiles, _, err = f.Ocean.Get(BucketGold, ga.ProfilesKey); err != nil {
		t.Fatal(err)
	}
	if out.series, _, err = f.Ocean.Get(BucketGold, ga.SeriesKey); err != nil {
		t.Fatal(err)
	}

	// DLQ contents, read back for the caller to verify.
	if len(poison) > 0 {
		deads, err := plane.ReadDeadLetters(context.Background(), f.Broker, BronzeTopic(src))
		if err != nil {
			t.Fatal(err)
		}
		if len(deads) != len(poisoned) {
			t.Fatalf("DLQ holds %d records, want %d", len(deads), len(poisoned))
		}
		for i, d := range deads {
			want := poisoned[i]
			if !bytes.Equal(d.Payload, want.payload) {
				t.Fatalf("DLQ record %d payload mismatch", i)
			}
			if d.Partition != want.partition || d.Offset != want.offset {
				t.Fatalf("DLQ record %d at %d@%d, want %d@%d",
					i, d.Partition, d.Offset, want.partition, want.offset)
			}
			if d.Topic != BronzeTopic(src) || d.Reason == "" {
				t.Fatalf("DLQ record %d metadata = %+v", i, d)
			}
		}
	}
	return out, poisoned
}

// TestPipelineOutputDigests pins the bytes of the fault-free pipeline's
// Silver object and Gold artifacts. TestChaosByteIdenticalPipeline holds
// a run under faults to a clean run of the same code; this holds the
// clean run to the bytes the pipeline has always written, so a change to
// how Silver is computed cannot move them unnoticed.
func TestPipelineOutputDigests(t *testing.T) {
	out, _ := runChaosPipeline(t, nil, nil)
	if len(out.silver) != 15072 {
		t.Errorf("silver object is %d bytes, want 15072", len(out.silver))
	}
	for _, c := range []struct {
		what string
		data []byte
		want string
	}{
		{"silver object", out.silver, "3742c31ef83ebc4ff6bd5871343e6cc223294c14e573d6775feeec3814c2dbb3"},
		{"gold profiles", out.profiles, "7efab17e6c3303a5ac49cd420ab0bf439aa25ba196e340e32987f1a1e2855575"},
		{"gold series", out.series, "dc8d743f15bc83aff4683983748f459d27782f79064aac2eba702fb8dbbce199"},
	} {
		sum := sha256.Sum256(c.data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s sha256 = %s, want %s", c.what, got, c.want)
		}
	}
}

func TestChaosByteIdenticalPipeline(t *testing.T) {
	// Baseline: no faults, no poison.
	want, _ := runChaosPipeline(t, nil, nil)
	if len(want.silver) == 0 || len(want.profiles) == 0 || len(want.series) == 0 {
		t.Fatal("baseline produced empty outputs")
	}
	if want.metrics.Polled != 14400 || want.metrics.Retries != 0 {
		t.Fatalf("baseline metrics = %+v", want.metrics)
	}

	// Chaos: ≥5% transient faults on every infrastructure surface, plus
	// occasional injected latency, plus poison records in the stream.
	inj := faults.New(chaosSeed())
	transient := faults.Rates{Transient: 0.05}
	inj.Set(faults.OpBrokerPublish, transient)
	inj.Set(faults.OpBrokerFetch, faults.Rates{Transient: 0.08, Latency: 0.02, LatencyDur: 200 * time.Microsecond})
	inj.Set(faults.OpLakeInsert, transient)
	inj.Set(faults.OpStorePut, transient)
	inj.Set(faults.OpStoreAppend, transient)
	inj.Set(faults.OpStoreGet, transient)
	poison := [][]byte{
		[]byte("not a row at all"),
		schema.EncodeRow(schema.Row{schema.Str("wrong-schema")}),
		{0xff, 0x00, 0x01},
	}
	got, _ := runChaosPipeline(t, inj, poison)

	// Retries masked every transient; outputs are byte-identical.
	if !bytes.Equal(got.silver, want.silver) {
		t.Fatalf("silver diverged under faults: %d vs %d bytes (seed %d)\n%s",
			len(got.silver), len(want.silver), inj.Seed(), inj)
	}
	if !bytes.Equal(got.profiles, want.profiles) {
		t.Fatalf("gold profiles diverged under faults (seed %d)\n%s", inj.Seed(), inj)
	}
	if !bytes.Equal(got.series, want.series) {
		t.Fatalf("gold series diverged under faults (seed %d)\n%s", inj.Seed(), inj)
	}

	// The run really was chaotic: faults were injected on the hot ops and
	// the job spent retries masking them.
	st := inj.Stats()
	injected := int64(0)
	for _, op := range []string{faults.OpBrokerFetch, faults.OpBrokerPublish, faults.OpLakeInsert, faults.OpStoreAppend} {
		if st[op].Calls == 0 {
			t.Fatalf("op %s never exercised: %s", op, inj)
		}
		injected += st[op].Transients
	}
	if injected == 0 {
		t.Fatalf("no transients injected: %s", inj)
	}
	// Exactly the poison was quarantined (checked in depth by the runner);
	// the metrics agree.
	if got.metrics.Bad != int64(len(poison)) {
		t.Fatalf("chaos metrics = %+v, want %d dead-lettered", got.metrics, len(poison))
	}
	if got.metrics.Polled != want.metrics.Polled+int64(len(poison)) {
		t.Fatalf("records in = %d, want %d", got.metrics.Polled, want.metrics.Polled+int64(len(poison)))
	}

	// The sampled trace covers the full Bronze→Silver→Gold journey: each
	// stage appears as a span with a measured duration, and the chaos is
	// visible as retry and DLQ annotations on the stages it hit.
	if got.trace == nil {
		t.Fatal("chaos run produced no sampled trace")
	}
	spansByName := map[string]int{}
	total := 0
	var retried, quarantined bool
	obs.WalkSpans(got.trace, func(s *obs.Span) {
		spansByName[s.Name]++
		total++
		for _, a := range s.Attrs {
			switch a.Key {
			case "retry":
				retried = true
			case "dlq":
				quarantined = true
			}
		}
	})
	for _, stage := range []string{
		"pipeline", "bronze.ingest", "stream.publish", "lake.insert",
		"silver.drain", "silver.microbatch", "silver.sink", "gold.build",
	} {
		if spansByName[stage] == 0 {
			t.Fatalf("trace is missing stage %q (got %v)", stage, spansByName)
		}
	}
	if total < 4 {
		t.Fatalf("trace has %d spans, want >= 4", total)
	}
	if !retried {
		t.Fatal("no retry annotation anywhere in a chaos trace")
	}
	if !quarantined {
		t.Fatal("no dlq annotation despite poison records")
	}
	var traceJSON bytes.Buffer
	if err := json.NewEncoder(&traceJSON).Encode(got.trace); err != nil {
		t.Fatalf("trace does not serialize: %v", err)
	}

	// The registry saw the run: migrated counters report the chaos totals
	// and the whole exposition is valid Prometheus text.
	if v := got.counters["oda_silver_dead_letters_total"]; v != float64(len(poison)) {
		t.Fatalf("oda_silver_dead_letters_total = %v, want %d", v, len(poison))
	}
	if got.counters["oda_silver_retries_total"]+got.counters["oda_core_retries_total"] == 0 {
		t.Fatal("no retries visible in /metrics counters after a chaos run")
	}
	if got.counters["oda_lake_insert_rows_total"] == 0 ||
		got.counters[`oda_stream_published_records_total{topic="bronze.power_temp"}`] == 0 {
		t.Fatalf("tier counters missing from registry: %v", got.counters)
	}
	if err := obs.ValidatePrometheus(got.promText); err != nil {
		t.Fatalf("chaos-run /metrics not valid Prometheus text: %v", err)
	}
}

// TestChaosBreakerAndRestartDamping wires a permanently failing Silver
// sink (every OCEAN append faults) into a supervised pipeline: the
// breaker must open instead of hammering the sink, the supervisor must
// stop restarting within its damping budget, and the wreck must be
// visible in the pipeline registry that /healthz reports.
func TestChaosBreakerAndRestartDamping(t *testing.T) {
	f := testFacility(t)
	src := telemetry.SourcePowerTemp
	if _, err := f.IngestWindow(context.Background(), t0, t0.Add(time.Minute), src); err != nil {
		t.Fatal(err)
	}
	inj := faults.New(chaosSeed())
	inj.Set(faults.OpStoreAppend, faults.Rates{Transient: 1}) // sink never heals
	inj.Install(f.Ocean)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	f.Opts.RetryPolicy = resilience.Policy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond}
	err := f.RunSilverSupervised(ctx, SilverPipelineConfig{
		Source: src,
		Breaker: &resilience.BreakerConfig{
			FailureThreshold: 2, Cooldown: time.Hour, // stays open for the test's lifetime
		},
	}, resilience.SupervisorConfig{
		MaxRestarts: 2, Window: time.Minute,
		Backoff: resilience.Policy{BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond},
	})
	if !errors.Is(err, resilience.ErrRestartStorm) {
		t.Fatalf("supervised run = %v, want restart storm", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("damping took %v — supervisor hot-looped", elapsed)
	}

	// The wreck is observable where healthz looks.
	statuses := f.Pipelines.Snapshot()
	if len(statuses) != 1 {
		t.Fatalf("pipelines = %d", len(statuses))
	}
	ps := statuses[0]
	if ps.Healthy() || ps.State != "failed" {
		t.Fatalf("status = %+v", ps)
	}
	if ps.Supervisor.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", ps.Supervisor.Restarts)
	}
	if ps.Metrics.Retries == 0 {
		t.Fatalf("metrics = %+v: no retries recorded", ps.Metrics)
	}
	if ps.Breaker == nil || ps.Breaker.Opens == 0 || ps.Breaker.State != "open" {
		t.Fatalf("breaker = %+v", ps.Breaker)
	}
	if ps.Supervisor.LastErr == "" {
		t.Fatalf("supervisor stats = %+v", ps.Supervisor)
	}
}
