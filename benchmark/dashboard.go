package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// dashPeriod is the open-loop write schedule: one 512-record batch
	// every 120 ms = 4 267 records/s, about 40 % of what the modeled
	// durable publish path can carry (README "Deviations" has why it is
	// not the issue's 80 ms).
	dashPeriod = 120 * time.Millisecond
	// flushModel is the modeled device flush charged per wal.fsync.
	flushModel = time.Millisecond
	// freshnessLimit is the event→queryable limit; a marker not visible
	// within it of the end of the run is a miss and a failure. It sits
	// far inside the fastest Fig 4-c control loop (15 s).
	freshnessLimit = time.Second
	// queueSampleEvery is how many dashboard requests pass between looks
	// at the gateway's admission queue (a lock and a registry lookup the
	// reader should not pay per request).
	queueSampleEvery = 16
	// replayEvery is how many dashboard requests pass between two that
	// the traced run peels layer by layer.
	replayEvery = 5
)

type dashFixture struct {
	pool  *pool
	plane *plane
	walFS string
}

func (fx *dashFixture) close() { fx.plane.close() }

func buildDashFixture(cfg runConfig) (*dashFixture, error) {
	// 511 pool records + 1 marker = one 512-record batch.
	pl, err := buildPool(cfg.seed, cfg.poolScale(), batchSize-1, true)
	if err != nil {
		return nil, err
	}
	dir, fs := walRoot(filepath.Join(cfg.tmpDir, "wal"))
	p, err := newPlane(planeConfig{
		seed: cfg.seed, scale: cfg.poolScale(), nodes: 3, rf: 2,
		walDir: dir, flushModel: flushModel, pump: true, marker: true, serve: true,
	})
	if err != nil {
		return nil, err
	}
	fx := &dashFixture{pool: pl, plane: p, walFS: fs}
	if err := fx.prepare(); err != nil {
		fx.close()
		return nil, err
	}
	return fx, nil
}

// prepare registers the dashboard's prepared statement over the socket,
// as a portal client would at start-up.
func (fx *dashFixture) prepare() error {
	c := newHTTPClient(fx.plane.baseURL)
	defer c.close()
	resp, err := c.do(http.MethodPost, "/api/v1/prepare?metric="+metricPower+
		"&groupby=component&granularity=1m&agg=max&from="+t0.Format(time.RFC3339)+
		"&to="+t0.Add(lapSpan).Format(time.RFC3339))
	if err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	var info struct {
		Handle string `json:"handle"`
	}
	if resp.status != http.StatusOK || json.Unmarshal(resp.body, &info) != nil || info.Handle == "" {
		return fmt.Errorf("prepare: status %d body %q", resp.status, resp.body)
	}
	fx.plane.prep = info.Handle
	return nil
}

// batchFn regenerates batch k as the writer sent it: 511 pool records
// plus the marker, stamped with the batch's latest event time.
func (fx *dashFixture) batchFn() batchFn {
	return func(k int, dst []observation) (string, []observation) {
		topic, obs := fx.pool.batch(k, dst)
		return topic, append(obs, markerObservation(obs[len(obs)-1].Ts, k))
	}
}

// dashResult is what one open-loop pass measured.
type dashResult struct {
	batches   int
	acked     int64
	userBytes int64
	failedOps int64 // publish/insert errors, non-2xx, markers never seen
	requests  int64 // all requests sent (probes included)
	ok        int64 // 2xx
	elapsed   time.Duration
	writeBusy time.Duration // sum over acked batches of send → acked
	*usage

	ack, late        *sample
	query            *sample // non-probe requests, socket latency
	freshCQ, freshLK *freshness
	probePeriod      *sample
	offered          float64
	clusterQuery     *sample // engine wall reported by the server, lake routes
	cellsScanned     float64
	lakeResponses    float64
	wal              walStats
	modelSleeps      []time.Duration
	gw               gatewayCounts
	queuedMax        int
	recovery, replay time.Duration
	replayed         walStats
	viewCells        int64
	layers           *layerSamples
	writerLayers     map[string]*layerTime // the writer's spans, aggregated (traced)
}

// dashCycle is the dashboard's request cycle at event time evt: the CQ
// view read, the prepared statement, top-N, and an ad-hoc grouped query
// whose metric and granularity the seeded rng picks.
func dashCycle(p *plane, rng *rand.Rand, evt time.Time, i int) reqSpec {
	to := evt.Truncate(time.Minute).Add(time.Minute)
	from := to.Add(-lapSpan)
	window := query{From: from, To: to}
	switch i % 4 {
	case 0:
		return reqSpec{kind: "cq", route: "cq_read", base: "/api/v1/cq/" + p.view.ID}
	case 1:
		q := window
		q.Filters = map[string][]string{"metric": {metricPower}}
		q.GroupBy, q.Granularity, q.Agg = []string{"component"}, time.Minute, aggMax
		return reqSpec{kind: "prepared", route: "prepared_query", base: "/api/v1/query?prep=" + p.prep, q: q}
	case 2:
		return reqSpec{kind: "topn", route: "lake_topn",
			base: "/api/v1/lake/topn?metric=" + metricPower + "&n=10", q: window}
	default:
		metrics := []string{metricPower, "cpu_temp_c", "gpu_temp_c", "inlet_temp_c"}
		grans := []time.Duration{rollup, time.Minute}
		q := window
		q.Filters = map[string][]string{"metric": {metrics[rng.Intn(len(metrics))]}}
		q.GroupBy, q.Granularity = []string{"component"}, grans[rng.Intn(len(grans))]
		return lakeQueryReq("adhoc", q, q.Granularity.String())
	}
}

func probeCQ(p *plane) string { return "/api/v1/cq/" + p.marker.ID }

var probeLake = "/api/v1/lake/query?metric=" + metricMarker + "&agg=max&from=" +
	t0.Format(time.RFC3339) + "&to=" + t0.Add(30*24*time.Hour).Format(time.RFC3339)

// maxMarker reads the highest probe_seq a probe response carries; -1
// when the response has no point yet.
func maxMarker(body []byte) (int, error) {
	var pts []struct {
		Value float64 `json:"value"`
	}
	if err := json.Unmarshal(body, &pts); err != nil {
		return -1, err
	}
	best := -1
	for _, p := range pts {
		if int(p.Value) > best {
			best = int(p.Value)
		}
	}
	return best, nil
}

// dashLoop runs the open loop for d: the writer goroutine sends one
// batch per period on schedule, the reader goroutine drives one
// keep-alive connection alternating a freshness probe with a dashboard
// request. Two load goroutines in total — nproc on the sizing machine.
func dashLoop(fx *dashFixture, cfg runConfig, d time.Duration, tr *tracer) (*dashResult, error) {
	p, pl := fx.plane, fx.pool
	count := int(d / dashPeriod)
	if count < 1 {
		count = 1
	}
	res := &dashResult{
		batches: count, ack: &sample{}, query: &sample{}, probePeriod: &sample{},
		freshCQ: newFreshness(), freshLK: newFreshness(), clusterQuery: &sample{},
		layers: newLayerSamples(),
	}
	names := p.layerNames()
	rng := rand.New(rand.NewSource(cfg.seed))

	res.usage = startUsage()
	wal0 := p.walTotals()
	start := time.Now().Add(10 * time.Millisecond)
	sched := newSchedule(start, dashPeriod)
	for k := 0; k < count; k++ {
		res.freshCQ.published(sched.due(k))
		res.freshLK.published(sched.due(k))
	}

	var sent atomic.Int64 // batches the writer has finished with
	var writerDone atomic.Bool
	// Writer-owned until wg.Wait: the two goroutines share no counter.
	var lastSend time.Time
	var wFailed, wAcked, wBytes int64
	var wBusy time.Duration
	wtr := tr.child() // the writer's own span list
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		obs := make([]observation, 0, batchSize)
		msgs := make([]message, 0, batchSize)
		gen := fx.batchFn()
		for k := 0; k < count; k++ {
			due := sched.wait(k, time.Now, time.Sleep)
			lastSend = time.Now()
			root := wtr.begin("batch", -1, k)
			var topic string
			topic, obs = gen(k, obs)
			sp := wtr.begin("schema.encode", root, k)
			var ub int64
			msgs, ub = encodeBatch(msgs[:0], obs)
			wtr.end(sp)
			sp = wtr.begin(names.publish, root, k)
			err := p.publish(topic, msgs)
			wtr.end(sp)
			if err == nil {
				sp = wtr.begin(names.insert, root, k)
				err = p.insert(obs)
				wtr.end(sp)
			}
			wtr.end(root)
			if err != nil {
				wFailed++
			} else {
				wAcked += int64(len(obs))
				wBytes += ub
				wBusy += time.Since(lastSend)
				res.ack.add(time.Since(due))
			}
			sent.Store(int64(k + 1))
		}
	}()

	// Reader: this goroutine.
	c := newHTTPClient(p.baseURL)
	defer c.close()
	var readErr error
	var lastProbe [2]time.Time
	var dashN, reqN int
	for i := 0; ; i++ {
		if writerDone.Load() {
			done := res.freshCQ.missing() == 0 && res.freshLK.missing() == 0
			if done || time.Since(sched.due(count-1)) > freshnessLimit {
				break
			}
		}
		if i%2 == 0 { // freshness probe, CQ and lake alternating
			which := (i / 2) % 2
			path, fr := probeCQ(p), res.freshCQ
			if which == 1 {
				path, fr = probeLake, res.freshLK
			}
			resp, err := c.get(path)
			res.requests++
			if err != nil || resp.status != http.StatusOK {
				res.failedOps++
				continue
			}
			res.ok++
			at := time.Now()
			if !lastProbe[which].IsZero() {
				res.probePeriod.add(at.Sub(lastProbe[which]))
			}
			lastProbe[which] = at
			seen, err := maxMarker(resp.body)
			if err != nil {
				readErr = fmt.Errorf("probe %s: %w", path, err)
				break
			}
			fr.observe(seen, at)
			continue
		}
		k := int(sent.Load())
		if k == 0 {
			k = 1
		}
		r := dashCycle(p, rng, pl.eventTime(k-1), dashN)
		dashN++
		resp, err := c.get(r.path(0))
		res.requests++
		if err != nil || resp.status != http.StatusOK {
			res.failedOps++
			continue
		}
		res.ok++
		res.query.add(resp.latency)
		if r.route == "lake_query" || r.route == "prepared_query" {
			res.clusterQuery.add(time.Duration(headerInt(resp.header, "X-ODA-Query-Micros")) * time.Microsecond)
			res.cellsScanned += float64(headerInt(resp.header, "X-ODA-Query-Cells-Scanned"))
			res.lakeResponses++
		}
		if dashN%queueSampleEvery == 0 {
			if q := p.gatewayCounts().queued; q > res.queuedMax {
				res.queuedMax = q
			}
		}
		if tr != nil && dashN%replayEvery == 0 {
			reqN++
			if err := replayLayers(p, c, r, res.layers, tr, reqN); err != nil {
				readErr = err
				break
			}
		}
	}
	wg.Wait()
	res.failedOps += wFailed
	res.acked, res.userBytes, res.writeBusy = wAcked, wBytes, wBusy
	res.elapsed = time.Since(start)
	res.usage.stop()
	if readErr != nil {
		return res, readErr
	}
	res.failedOps += int64(res.freshCQ.missing() + res.freshLK.missing())
	res.late = sched.late
	res.offered = sched.offeredPerSecond(count, lastSend) * batchSize
	res.wal = p.walTotals()
	res.wal.Appends -= wal0.Appends
	res.wal.AppendedBytes -= wal0.AppendedBytes
	res.wal.Fsyncs -= wal0.Fsyncs
	res.modelSleeps = p.flushModelSleeps()
	res.gw = p.gatewayCounts()
	res.viewCells = p.viewCells()
	if wtr != nil {
		res.writerLayers = selfTimes(wtr.spans)
		tr.absorb(wtr)
	}

	// Kill a node, restart it from its WAL, repair to full health. The
	// replay size is fixed by the schedule (count batches).
	var err error
	res.replay, res.recovery, res.replayed, err = p.killAndRecover()
	if err != nil {
		return res, fmt.Errorf("kill/recover %s: %w", victimNode, err)
	}
	return res, nil
}

// dashSegment is one complete replica of the workload: set-up (timed),
// the open loop with its kill/restart, the gates, tear-down.
func dashSegment(cfg runConfig, prov *provenance, tr *tracer) (*outcome, *dashResult, []observation, error) {
	out := newOutcome()
	start := time.Now()
	fx, err := buildDashFixture(cfg)
	if err != nil {
		return out, nil, nil, fmt.Errorf("set-up: %w", err)
	}
	out.m.set("setup_s", time.Since(start).Seconds())
	prov.WALDir, prov.WALFS = fx.plane.cfg.walDir, fx.walFS
	out.notes["pool_records"] = fx.pool.records
	res, err := dashLoop(fx, cfg, cfg.segmentDuration(), tr)
	if err != nil {
		fx.close()
		return out, nil, nil, err
	}
	out.gateErrs = gateDashboard(fx, res)
	// A copy: the batch is a window onto its source's whole pool array, and
	// holding it would pin 7 or 18 MB (the seed decides which source sorts
	// first) through every later segment.
	probeObs := append([]observation(nil), fx.pool.batches[0].obs...)
	fx.close()
	fx = nil
	releaseMemory()
	reportDashboard(out, res)
	return out, res, probeObs, nil
}

func runDashboardWorkload(cfg runConfig, prov *provenance) (*outcome, error) {
	prov.FlushModel = "time.Sleep(" + flushModel.String() + ") before every wal.fsync"
	prov.Sizes["segments"] = cfg.untracedSegments()
	prov.Sizes["period_ms"] = dashPeriod.Milliseconds()
	prov.Sizes["batch"] = batchSize

	var probeObs []observation
	out, res, err := runSegments(cfg.untracedSegments(), func() (*outcome, *dashResult, error) {
		seg, r, obs, err := dashSegment(cfg, prov, nil)
		probeObs = obs
		return seg, r, err
	})
	if err != nil {
		return out, err
	}
	if !cfg.trace {
		return out, nil
	}

	tr := newTracer()
	tout, tres, _, err := dashSegment(cfg, prov, tr)
	if err != nil {
		return out, err
	}
	out.absorb(tout)
	reportDashboardLayers(out, res, tres)
	lat, err := realFsyncProbe(filepath.Join(cfg.tmpDir, "fsync-probe"), probeObs, 200)
	if err != nil {
		return out, fmt.Errorf("real fsync probe: %w", err)
	}
	out.m.set("wal.fsync_real_us_p50", durationsToSample(lat).p50()*1000)
	out.tracer = tr
	return out, nil
}

func gateDashboard(fx *dashFixture, res *dashResult) []string {
	errs := gateIngest(fx.plane, fx.batchFn(), len(fx.pool.batches), res.batches, res.acked)
	evt := fx.pool.eventTime(res.batches - 1)
	rng := rand.New(rand.NewSource(1))
	paths := []string{probeCQ(fx.plane), probeLake}
	for i := 0; i < 4; i++ {
		paths = append(paths, dashCycle(fx.plane, rng, evt, i).path(0))
	}
	return append(errs, gateHTTP(fx.plane, paths)...)
}

func reportDashboard(out *outcome, r *dashResult) {
	out.attempted += r.requests + int64(r.batches)
	out.failed += r.failedOps
	m := out.m
	secs := r.elapsed.Seconds()
	qps := ratio(float64(r.ok), secs)
	tail, tailPct := r.freshCQ.lat.tail()
	// Open loop: records acked per second is the schedule's rate, which
	// only a collapse would move. What the system decides is how much of
	// each period the durable write path is busy, so the throughput is
	// its capacity: records acked per second the writer spent between
	// sending a batch and having it acked, the reader running alongside.
	m.set("throughput_per_s", ratio(float64(r.acked), r.writeBusy.Seconds()))
	m.set("latency_ms_p50", r.freshCQ.lat.p50())
	m.set("latency_ms_tail", tail)
	m.set("cpu_us_per_unit", ratio(float64(r.cpu.Microseconds()), float64(r.ok)))
	r.usage.report(m, r.acked)

	m.set("ack_ms_p50", r.ack.p50())
	m.set("ack_ms_p95", r.ack.pct(95))
	m.set("freshness_cq_ms_p50", r.freshCQ.lat.p50())
	m.set("freshness_cq_ms_p95", r.freshCQ.lat.pct(95))
	m.set("freshness_lake_ms_p50", r.freshLK.lat.p50())
	m.set("freshness_lake_ms_p95", r.freshLK.lat.pct(95))
	m.set("query_ms_p50", r.query.p50())
	m.set("query_ms_p99", r.query.pct(99))
	m.set("queries_per_s", qps)
	m.set("recovery_s", r.recovery.Seconds())
	m.set("latency_tail_percentile", tailPct)
	m.set("failed_ops_ratio", ratio(float64(r.failedOps), float64(r.requests+int64(r.batches))))

	batches := float64(r.batches)
	m.set("wal.fsyncs_per_batch", ratio(float64(r.wal.Fsyncs), batches))
	m.set("wal.appends_per_record", ratio(float64(r.wal.Appends), float64(r.acked)))
	m.set("wal.bytes_per_user_byte", ratio(float64(r.wal.AppendedBytes), float64(r.userBytes)))
	m.set("wal.flush_model_ms_p50", durationsToSample(r.modelSleeps).p50())
	m.set("wal.replay_ms_per_mb", ratio(float64(r.replay.Nanoseconds())/1e6, float64(r.replayed.ReplayedBytes)/(1<<20)))
	m.set("cq.cells", float64(r.viewCells))
	m.set("cluster.query_ms_p50", r.clusterQuery.p50())
	m.set("cluster.cells_scanned_per_query", ratio(r.cellsScanned, r.lakeResponses))
	m.set("gateway.throttled_ratio", ratio(float64(r.gw.throttled), float64(r.gw.requests)))
	m.set("gateway.shed_ratio", ratio(float64(r.gw.shed), float64(r.gw.requests)))
	m.set("gateway.queued_max", float64(r.queuedMax))
	m.set("loadgen.late_ms_p99", r.late.pct(99))
	m.set("loadgen.probe_period_ms_p50", r.probePeriod.p50())
	m.set("loadgen.offered_records_per_s", r.offered)

	scheduled := float64(batchSize) / dashPeriod.Seconds()
	out.notes["loadgen_valid"] = r.late.pct(99) < 10 && abs(r.offered-scheduled) < 0.01*scheduled
	out.notes["scheduled_records_per_s"] = scheduled
	out.notes["write_path_utilisation"] = ratio(r.writeBusy.Seconds(), float64(r.batches)*dashPeriod.Seconds())
	out.notes["freshness_cq_samples"] = r.freshCQ.lat.n()
	out.notes["freshness_lake_samples"] = r.freshLK.lat.n()
	out.notes["freshness_limit_ms"] = freshnessLimit.Milliseconds()
	out.notes["query_samples"] = r.query.n()
	out.notes["replay_batches"] = r.batches
	out.notes["replayed_bytes"] = r.replayed.ReplayedBytes
}

func reportDashboardLayers(out *outcome, untraced, traced *dashResult) {
	m := out.m
	reportHTTPLayers(m, traced.layers)
	for _, name := range []string{"schema.encode", "cluster.publish", "cluster.insert"} {
		if lt := traced.writerLayers[name]; lt != nil {
			m.set(name+"_ns_per_record", ratio(float64(lt.Self), float64(traced.acked)))
		}
	}
	// The open loop offers the same load traced or not, and the traced
	// reader spends its time on replays, so neither throughput nor CPU
	// isolates the spans' cost; the writer's ack, which carries them, does.
	base := untraced.ack.p50()
	m.set("trace.overhead_pct", 100*ratio(traced.ack.p50()-base, base))
}
