package main

import (
	"fmt"
	"time"
)

// ingestFixture is what set-up builds for the closed-loop ingest
// workloads: the seeded pool and the plane it is pushed through.
type ingestFixture struct {
	pool  *pool
	plane *plane
}

func (fx *ingestFixture) close() { fx.plane.close() }

func buildIngestFixture(cfg runConfig, replicated bool) (*ingestFixture, error) {
	pl, err := buildPool(cfg.seed, cfg.poolScale(), batchSize, true)
	if err != nil {
		return nil, err
	}
	pc := planeConfig{seed: cfg.seed, scale: cfg.poolScale(), pump: true}
	if replicated {
		pc.nodes, pc.rf = 3, 2 // the odaserve -cluster-nodes=3 default, memory-only
	}
	p, err := newPlane(pc)
	if err != nil {
		return nil, err
	}
	return &ingestFixture{pool: pl, plane: p}, nil
}

// ingestResult is what one closed-loop pass measured.
type ingestResult struct {
	batches   int   // attempted
	acked     int64 // records whose publish and insert both returned nil
	failedOps int64
	userBytes int64
	elapsed   time.Duration
	ack       *sample // publish+insert acked, per batch
	lag       []float64
	viewCells int64
	*usage
}

func (r *ingestResult) recordsPerSecond() float64 {
	return ratio(float64(r.acked), r.elapsed.Seconds())
}

func (r *ingestResult) nsPerRecord() float64 {
	return ratio(float64(r.elapsed.Nanoseconds()), float64(r.acked))
}

// layerNames are the span names of one plane kind.
type layerNames struct{ publish, insert string }

func (p *plane) layerNames() layerNames {
	if p.cl != nil {
		return layerNames{"cluster.publish", "cluster.insert"}
	}
	return layerNames{"stream.publish", "tsdb.insert"}
}

// lagEvery is how often (in batches) the loop samples how far the CQ
// pump trails the producer.
const lagEvery = 64

// Nominal closed-loop rates (records per second of --seconds) that size
// the fixed work of a run: a little under what the sizing box sustains on
// one core, so a run takes about --seconds. The work is fixed, not the
// time, because the lake only grows: a run that stops on the clock lands
// on either side of its last, ~1 GB collector cycle from one run to the
// next, and throughput, CPU and peak memory all jump by 10-15 % with it.
// With the record count fixed every run allocates the same and collects
// the same number of times; only the machine's speed is left to vary.
const (
	nominalLocalRate      = 900_000
	nominalReplicatedRate = 400_000
)

// ingestBatches is how many batches a run of the given length sends.
func ingestBatches(cfg runConfig, replicated bool, d time.Duration) int {
	rate := nominalLocalRate
	if replicated {
		rate = nominalReplicatedRate
	}
	if cfg.short {
		rate /= 50
	}
	n := int(float64(rate) * d.Seconds() / batchSize)
	if n < 1 {
		n = 1
	}
	return n
}

// ingestLoop is the closed loop: one producer laps the pool for a fixed
// number of batches, encoding, publishing and inserting one at a time,
// the next only after the previous is acked. cq.Pump.Run drains
// concurrently — it is part of the system, not the load. limit stops a
// run on a system grown far slower than the sizing assumed. tr == nil is
// the untraced run.
func ingestLoop(fx *ingestFixture, batches int, limit time.Duration, tr *tracer) ingestResult {
	p, pl := fx.plane, fx.pool
	names := p.layerNames()
	res := ingestResult{ack: &sample{}}
	obs := make([]observation, 0, batchSize)
	msgs := make([]message, 0, batchSize)
	perEventSec := pl.recordsPerEventSecond()

	res.usage = startUsage()
	start := time.Now()
	deadline := start.Add(limit)
	now := start
	k := 0
	for ; k < batches && now.Before(deadline); k++ {
		root := tr.begin("batch", -1, k)
		var topic string
		topic, obs = pl.batch(k, obs)

		sp := tr.begin("schema.encode", root, k)
		var ub int64
		msgs, ub = encodeBatch(msgs[:0], obs)
		tr.end(sp)

		sp = tr.begin(names.publish, root, k)
		err := p.publish(topic, msgs)
		tr.end(sp)
		if err == nil {
			sp = tr.begin(names.insert, root, k)
			err = p.insert(obs)
			tr.end(sp)
		}
		if err != nil {
			res.failedOps++
		} else {
			res.acked += int64(len(obs))
			res.userBytes += ub
		}
		if k%lagEvery == 0 {
			lag := pl.eventTime(k).Sub(p.pumpWatermark()).Seconds() * perEventSec
			if lag < 0 {
				lag = 0
			}
			res.lag = append(res.lag, lag)
		}
		tr.end(root)
		end := time.Now()
		res.ack.add(end.Sub(now))
		now = end
	}
	res.batches = k
	res.elapsed = now.Sub(start)
	res.usage.stop()
	res.viewCells = p.viewCells()
	return res
}

// ingestBatchFn regenerates batch k exactly as ingestLoop sent it, for
// the reference the correctness gate feeds.
func (fx *ingestFixture) batchFn() batchFn {
	return func(k int, dst []observation) (string, []observation) { return fx.pool.batch(k, dst) }
}

// ingestSegment is one complete replica of an ingest workload: set-up
// (timed), the closed loop, the gate, tear-down. after, when set, runs
// on the still-open plane once the gate has drained and stopped the pump.
func ingestSegment(cfg runConfig, replicated bool, batches int, tr *tracer, after func(*ingestFixture)) (*outcome, *ingestResult, *pool, error) {
	out := newOutcome()
	start := time.Now()
	fx, err := buildIngestFixture(cfg, replicated)
	if err != nil {
		return out, nil, nil, fmt.Errorf("set-up: %w", err)
	}
	out.m.set("setup_s", time.Since(start).Seconds())
	res := ingestLoop(fx, batches, 3*cfg.segmentDuration(), tr)
	out.gateErrs = gateIngest(fx.plane, fx.batchFn(), len(fx.pool.batches), res.batches, res.acked)
	if after != nil {
		after(fx)
	}
	// Drop the plane, not just close it: a reachable lake would tax the
	// collector for everything that runs after it.
	pl := fx.pool
	fx.close()
	fx = nil
	releaseMemory()
	reportIngest(out, &res)
	return out, &res, pl, nil
}

func runIngestWorkload(cfg runConfig, replicated bool, prov *provenance) (*outcome, error) {
	batches := ingestBatches(cfg, replicated, cfg.segmentDuration())
	prov.Sizes["segments"] = cfg.untracedSegments()
	prov.Sizes["batches_per_segment"] = batches
	prov.Sizes["batch"] = batchSize
	prov.Sizes["retention_bytes_per_partition"] = retentionBytes

	var pl *pool
	out, res, err := runSegments(cfg.untracedSegments(), func() (*outcome, *ingestResult, error) {
		seg, r, p, err := ingestSegment(cfg, replicated, batches, nil, nil)
		pl = p
		return seg, r, err
	})
	if err != nil {
		return out, err
	}
	out.notes["pool_records"] = pl.records
	out.notes["pool_batches"] = len(pl.batches)
	if !cfg.trace {
		return out, nil
	}

	tr := newTracer()
	var names layerNames
	tout, tres, _, err := ingestSegment(cfg, replicated, batches, tr, func(fx *ingestFixture) {
		names = fx.plane.layerNames()
		// The pump is drained and stopped by the gate, so the view is
		// still: price its two read paths on the window the run left.
		fold, hot, cells := viewReadCosts(fx.plane.view, 9)
		out.m.set("cq.read_fold_ms", fold.p50())
		out.m.set("cq.read_hot_ns", hot.p50()*1e6)
		out.notes["cq_fold_cells"] = cells
	})
	if err != nil {
		return out, err
	}
	out.absorb(tout)
	reportIngestLayers(out, res, tres, tr, names)
	ladder, err := runLadder(cfg, pl, out.m)
	if err != nil {
		return out, fmt.Errorf("peel ladder: %w", err)
	}
	out.ladder, out.tracer = ladder, tr
	return out, nil
}

// reportIngest fills the metrics the untraced pass yields.
func reportIngest(out *outcome, r *ingestResult) {
	out.attempted += int64(r.batches)
	out.failed += r.failedOps
	m := out.m
	rate := r.recordsPerSecond()
	tail, tailPct := r.ack.tail()
	cpuPerRec := ratio(float64(r.cpu.Microseconds()), float64(r.acked))
	m.set("throughput_per_s", rate)
	m.set("latency_ms_p50", r.ack.p50())
	m.set("latency_ms_tail", tail)
	m.set("cpu_us_per_unit", cpuPerRec)
	r.usage.report(m, r.acked)

	bytesPerRecord := ratio(float64(r.userBytes), float64(r.acked))
	m.set("ingest_records_per_s", rate)
	m.set("tb_per_day_equiv", rate*bytesPerRecord*86400/1e12)
	m.set("cpu_us_per_record", cpuPerRec)
	m.set("ack_ms_p50", r.ack.p50())
	m.set("ack_ms_p95", r.ack.pct(95))
	m.set("latency_tail_percentile", tailPct)
	m.set("failed_ops_ratio", ratio(float64(r.failedOps), float64(r.batches)))
	lag := &sample{ms: r.lag}
	m.set("cq.pump_lag_records_p95", lag.pct(95))
	m.set("cq.cells", float64(r.viewCells))
	out.notes["records_acked"] = r.acked
	out.notes["bytes_per_record"] = bytesPerRecord
	out.notes["paper_tb_per_day"] = "4.2-4.5"
	out.notes["full_scale_tb_per_day_at_this_record_size"] = fullScaleRecordsPerDay() * bytesPerRecord / 1e12
	out.notes["ack_samples"] = r.ack.n()
}

// reportIngestLayers turns the traced pass's spans into the per-layer
// ns/record budget and checks it against the untraced end-to-end figure.
func reportIngestLayers(out *outcome, untraced, traced *ingestResult, tr *tracer, names layerNames) {
	m := out.m
	layers := selfTimes(tr.spans)
	perRecord := func(name string) float64 {
		lt := layers[name]
		if lt == nil {
			return 0
		}
		return ratio(float64(lt.Self), float64(traced.acked))
	}
	lap := perRecord("batch") // lap copy, lag sample, loop bookkeeping
	enc := perRecord("schema.encode")
	pub := perRecord(names.publish)
	ins := perRecord(names.insert)
	m.set("loadgen.lap_ns_per_record", lap)
	m.set("schema.encode_ns_per_record", enc)
	m.set(names.publish+"_ns_per_record", pub)
	m.set(names.insert+"_ns_per_record", ins)

	e2e := untraced.nsPerRecord()
	sum := lap + enc + pub + ins
	m.set("budget.e2e_ns_per_record", e2e)
	m.set("budget.layers_ns_per_record", sum)
	m.set("budget.unexplained_pct", 100*ratio(abs(e2e-sum), e2e))
	m.set("trace.overhead_pct", 100*ratio(traced.nsPerRecord()-e2e, e2e))
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
