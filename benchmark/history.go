package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

const (
	histHours    = 10 // simulated hours of power_temp held
	histColdHrs  = 9  // oldest whole-hour chunks offloaded to OCEAN
	histScale    = 8  // nodes
	histHotSet   = 8  // repeated queries (result-cache hits)
	histRangeMin = 5  // window starts are drawn at 5-minute steps

	// histNominalRate sizes a segment's fixed work: requests per second of
	// its nominal length, over all connections; a little under what the
	// sizing box serves on one core. Fixed work (see the ingest loops)
	// means every run sends the same requests; only how long they take
	// varies.
	histNominalRate = 32
)

// histFixture is the read-only plane: a facility holding histHours of
// history, the oldest histColdHrs of it offloaded into the lake bucket.
type histFixture struct {
	plane      *plane
	records    int64
	cells      int64
	offloadDur time.Duration
	end        time.Time
	hot        []reqSpec
}

func (fx *histFixture) close() { fx.plane.close() }

func (c runConfig) histLaps() int {
	if c.short {
		return 24 // 2 simulated hours
	}
	return histHours * int(time.Hour/lapSpan)
}

// histColdStarts is the span hot+cold window starts are dealt from: the
// first six hours, so such a window reaches back four to ten hours. Every
// whole hour further back is one more cold segment to open, so latency
// climbs in six equal steps across the class — and six puts the median
// request of the whole mix (a quarter of the way into this class) in the
// middle of a step. With eight steps it sat exactly on an edge and the
// p50 flipped between two values a third apart from run to run.
func (c runConfig) histColdStarts() time.Duration {
	if c.short {
		return histRangeMin * time.Minute
	}
	return 6 * time.Hour
}

func (c runConfig) histColdCut() time.Duration {
	if c.short {
		return time.Hour
	}
	return histColdHrs * time.Hour
}

func buildHistFixture(cfg runConfig) (*histFixture, error) {
	pl, err := buildPool(cfg.seed, histScale, batchSize, false)
	if err != nil {
		return nil, err
	}
	p, err := newPlane(planeConfig{seed: cfg.seed, scale: histScale, serve: true})
	if err != nil {
		return nil, err
	}
	fx := &histFixture{plane: p}
	var obs []observation
	n := cfg.histLaps() * len(pl.batches)
	for k := 0; k < n; k++ {
		_, obs = pl.batch(k, obs)
		if err := p.insert(obs); err != nil {
			fx.close()
			return nil, fmt.Errorf("fixture insert: %w", err)
		}
		fx.records += int64(len(obs))
	}
	fx.end = t0.Add(time.Duration(cfg.histLaps()) * lapSpan)
	start := time.Now()
	// Offload takes chunks that ended strictly before the cutoff; a
	// nanosecond past the hour includes the chunk ending on it.
	fx.cells, err = p.offloadBefore(t0.Add(cfg.histColdCut() + time.Nanosecond))
	fx.offloadDur = time.Since(start)
	if err != nil {
		fx.close()
		return nil, fmt.Errorf("offload: %w", err)
	}
	mx := fx.newMixer(cfg, cfg.seed)
	for i := 0; i < histHotSet; i++ {
		r := mx.draw(cfg, 0.1)
		r.kind = "repeat"
		fx.hot = append(fx.hot, r)
	}
	return fx, nil
}

var histMetrics = []string{
	"node_power_w", "cpu_power_w", "mem_power_w", "gpu0_power_w", "gpu1_power_w",
	"gpu2_power_w", "gpu3_power_w", "cpu_temp_c", "gpu_temp_c", "inlet_temp_c",
}

// histClasses is the request mix as a fixed rotation — 40 % hot+cold
// filtered, 20 % hot+cold unfiltered grouped, 20 % hot-only, 20 % repeats
// from the hot set — so every run sends exactly these shares and only
// the parameters inside a class are drawn from the seed. (Drawing the
// class too made a run's share of 130 ms grouped scans, and with it
// every rate, wander by several percent.) Values are draw's selector.
var histClasses = [10]float64{0.1, 0.5, 0.1, 0.7, 0.9, 0.1, 0.5, 0.7, 0.1, 0.9}

// windowDeck deals window start offsets so that any run of consecutive
// deals is spread evenly over the span: offset k is (first + k × stride)
// mod steps, with the stride near the golden section of the step count
// and coprime to it, so every offset comes once before any comes again.
// The seed picks only where the walk starts. Drawing at random let a
// run's total scan work depend on which windows the seed happened to
// favour (±10 % in queries/s between seeds); an even walk gives every
// seed the same spread of windows, in a different order.
type windowDeck struct {
	steps, stride, next int
}

func newWindowDeck(rng *rand.Rand, span time.Duration) *windowDeck {
	steps := int(span / (histRangeMin * time.Minute))
	if steps < 1 {
		steps = 1
	}
	stride := int(float64(steps)*0.618 + 0.5)
	if stride < 1 {
		stride = 1
	}
	for gcd(stride, steps) != 1 {
		stride++
	}
	return &windowDeck{steps: steps, stride: stride, next: rng.Intn(steps)}
}

func (d *windowDeck) deal() time.Duration {
	step := d.next
	d.next = (d.next + d.stride) % d.steps
	return time.Duration(step) * histRangeMin * time.Minute
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// mixer draws one connection's requests: the class from the rotation,
// the window from a deck per class, the metric and components from the
// seeded rng.
type mixer struct {
	fx   *histFixture
	rng  *rand.Rand
	cold *windowDeck // starts of hot+cold windows
	hot  *windowDeck // starts of hot-only windows
}

func (fx *histFixture) newMixer(cfg runConfig, seed int64) *mixer {
	rng := rand.New(rand.NewSource(seed))
	hotSpan := fx.end.Sub(t0.Add(cfg.histColdCut()))
	return &mixer{
		fx: fx, rng: rng,
		cold: newWindowDeck(rng, cfg.histColdStarts()),
		hot:  newWindowDeck(rng, hotSpan-10*time.Minute),
	}
}

// draw builds one request; u in [0,1) selects the class (see
// histClasses). The decks hold more than 64 distinct window starts, so
// the 64-entry result cache cannot hold the working set.
func (mx *mixer) draw(cfg runConfig, u float64) reqSpec {
	fx, rng := mx.fx, mx.rng
	component := func() string { return fmt.Sprintf("node%05d", rng.Intn(histScale)) }
	switch {
	case u < 0.4:
		q := query{From: t0.Add(mx.cold.deal()), To: fx.end,
			Filters: map[string][]string{
				"metric":    {histMetrics[rng.Intn(len(histMetrics))]},
				"component": {component(), component()},
			},
			GroupBy: []string{"component"}, Granularity: 5 * time.Minute}
		return lakeQueryReq("filtered", q, "5m")
	case u < 0.6:
		q := query{From: t0.Add(mx.cold.deal()), To: fx.end,
			GroupBy: []string{"metric"}, Granularity: 15 * time.Minute}
		return lakeQueryReq("grouped", q, "15m")
	case u < 0.8:
		q := query{From: t0.Add(cfg.histColdCut() + mx.hot.deal()), To: fx.end,
			Filters: map[string][]string{"metric": {histMetrics[rng.Intn(len(histMetrics))]}},
			GroupBy: []string{"component"}, Granularity: time.Minute}
		return lakeQueryReq("hot", q, "1m")
	default:
		return fx.hot[rng.Intn(len(fx.hot))]
	}
}

// connResult is what one connection measured; the two are merged after
// both goroutines have stopped.
type connResult struct {
	requests, ok, failed int64
	query                *sample
	byKind               map[string]*sample
	cacheHits            int64
	cells                float64
	coldScanned          float64
	coldPruned           float64
	rgPruned             float64
	spans                *tracer
}

type histResult struct {
	conns   []*connResult
	elapsed time.Duration
	*usage
	oceanGets int64
	oceanB    int64
	gw        gatewayCounts
	queuedMax int
}

// histConns is how many closed-loop connections load the plane: one per
// core the run is pinned to. On one core a second connection measures
// the scheduler: a 0.3 ms cache hit queued behind the other connection's
// 200 ms scan came back in 11-40 ms, and the median request was whichever
// of the two the 10 ms time slices happened to favour.
const histConns = benchProcs

// histRequests is how many requests each connection sends.
func histRequests(d time.Duration) int {
	n := int(histNominalRate*d.Seconds()) / histConns
	if n < len(histClasses) {
		n = len(histClasses)
	}
	return n
}

// histLoop is the closed read loop: histConns goroutines, one keep-alive
// connection each, the next request only after the previous response,
// each sending a fixed number of requests (limit stops a run on a system
// grown far slower than the sizing assumed).
func histLoop(fx *histFixture, cfg runConfig, requests int, limit time.Duration, tr *tracer) *histResult {
	p := fx.plane
	res := &histResult{}
	res.usage = startUsage()
	gets0, bytes0 := p.oceanReads()
	start := time.Now()
	deadline := start.Add(limit)
	var wg sync.WaitGroup
	for i := 0; i < histConns; i++ {
		cr := &connResult{query: &sample{}, byKind: map[string]*sample{}}
		cr.spans = tr.child()
		res.conns = append(res.conns, cr)
		wg.Add(1)
		go func(i int, cr *connResult) {
			defer wg.Done()
			mx := fx.newMixer(cfg, cfg.seed*histConns+int64(i)+1)
			c := newHTTPClient(p.baseURL)
			defer c.close()
			for n := 0; n < requests && time.Now().Before(deadline); n++ {
				r := mx.draw(cfg, histClasses[(n+i*len(histClasses)/histConns)%len(histClasses)])
				resp, err := c.get(r.path(0))
				cr.requests++
				if err != nil || resp.status != http.StatusOK {
					cr.failed++
					continue
				}
				cr.ok++
				cr.query.add(resp.latency)
				routeSample(cr.byKind, r.kind).add(resp.latency)
				if resp.header.Get("X-ODA-Query-Cache") == "hit" {
					cr.cacheHits++
				}
				cr.cells += float64(headerInt(resp.header, "X-ODA-Query-Cells-Scanned"))
				cr.coldScanned += float64(headerInt(resp.header, "X-ODA-Query-Cold-Segments-Scanned"))
				cr.coldPruned += float64(headerInt(resp.header, "X-ODA-Query-Cold-Segments-Pruned"))
				cr.rgPruned += float64(headerInt(resp.header, "X-ODA-Query-RowGroups-Pruned"))
				cr.spans.add("request."+r.kind, time.Now().Add(-resp.latency), resp.latency, -1, i*1_000_000+n)
			}
		}(i, cr)
	}
	// The harness goroutine only watches the admission queue while the
	// connections run.
	stop := make(chan struct{})
	go func() { wg.Wait(); close(stop) }()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
watch:
	for {
		select {
		case <-stop:
			break watch
		case <-tick.C:
			if q := p.gatewayCounts().queued; q > res.queuedMax {
				res.queuedMax = q
			}
		}
	}
	res.elapsed = time.Since(start)
	res.usage.stop()
	gets1, bytes1 := p.oceanReads()
	res.oceanGets, res.oceanB = gets1-gets0, bytes1-bytes0
	res.gw = p.gatewayCounts()
	for _, cr := range res.conns {
		tr.absorb(cr.spans)
	}
	return res
}

// peelRequests is how many requests the traced run peels layer by layer.
const peelRequests = 60

// peelPass replays a fixed sample of the mix one request at a time, after
// the connections have stopped. Peeling inside the loop would time each
// replay while the other connection's 150 ms scans hold the core, and
// the difference between two replays would be queueing, not a layer.
func peelPass(fx *histFixture, cfg runConfig, n int, tr *tracer) (*layerSamples, error) {
	ls := newLayerSamples()
	mx := fx.newMixer(cfg, cfg.seed+7)
	c := newHTTPClient(fx.plane.baseURL)
	defer c.close()
	for i, done := 0, 0; done < n; i++ {
		r := mx.draw(cfg, histClasses[i%len(histClasses)])
		if r.kind == "repeat" {
			continue // a cache hit has no engine layer to peel
		}
		if err := replayLayers(fx.plane, c, r, ls, tr, done); err != nil {
			return nil, err
		}
		done++
	}
	return ls, nil
}

// gateHistory is the read-only gate: the federated hot+cold plane must
// answer byte-identically to an all-hot single-node store fed the same
// observations, and socket bodies must equal the in-process answers.
func gateHistory(fx *histFixture, cfg runConfig) []string {
	var errs []string
	pl, err := buildPool(cfg.seed, histScale, batchSize, false)
	if err != nil {
		return []string{err.Error()}
	}
	ref := newReferenceLake()
	var obs []observation
	for k := 0; k < cfg.histLaps()*len(pl.batches); k++ {
		_, obs = pl.batch(k, obs)
		if err := ref.insert(obs); err != nil {
			return []string{"reference insert: " + err.Error()}
		}
	}
	mx := fx.newMixer(cfg, cfg.seed-1)
	var paths []string
	for _, u := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		r := mx.draw(cfg, u)
		paths = append(paths, r.path(0))
		got, _, err := fx.plane.run(r.q)
		if err != nil {
			errs = append(errs, fmt.Sprintf("plane query %s: %v", r.kind, err))
			continue
		}
		want, err := ref.run(r.q)
		if err != nil {
			errs = append(errs, fmt.Sprintf("reference query %s: %v", r.kind, err))
			continue
		}
		if !framesEqual(got, want) {
			errs = append(errs, fmt.Sprintf("federated != all-hot reference on %s query (%d vs %d rows)",
				r.kind, frameLen(got), frameLen(want)))
		}
	}
	return append(errs, gateHTTP(fx.plane, paths)...)
}

// histSegment is one complete replica of the workload: set-up (timed:
// fixture ingest, offload, server start), the closed read loop, the gate,
// tear-down. In the traced segment the layer-by-layer pass follows the
// loop on the same fixture.
func histSegment(cfg runConfig, prov *provenance, requests int, tr *tracer) (*outcome, *histResult, *layerSamples, error) {
	out := newOutcome()
	start := time.Now()
	fx, err := buildHistFixture(cfg)
	if err != nil {
		return out, nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer releaseMemory()
	defer fx.close()
	out.m.set("setup_s", time.Since(start).Seconds())
	out.m.set("tsdb.offload_ns_per_cell", ratio(float64(fx.offloadDur.Nanoseconds()), float64(fx.cells)))
	// What the generator and the lake made of the seed goes into the notes;
	// provenance sizes are what the workload chose, and -compare refuses
	// pairs that differ in them.
	out.notes["fixture_records"] = fx.records
	out.notes["offloaded_cells"] = fx.cells

	res := histLoop(fx, cfg, requests, 3*cfg.segmentDuration(), tr)
	reportHistory(out, res)
	var ls *layerSamples
	if tr != nil {
		n := peelRequests
		if cfg.short {
			n = 8
		}
		if ls, err = peelPass(fx, cfg, n, tr); err != nil {
			return out, nil, nil, err
		}
	}
	out.gateErrs = gateHistory(fx, cfg)
	return out, res, ls, nil
}

func runHistoryWorkload(cfg runConfig, prov *provenance) (*outcome, error) {
	requests := histRequests(cfg.segmentDuration())
	prov.Sizes["segments"] = cfg.untracedSegments()
	prov.Sizes["requests_per_connection"] = requests
	prov.Sizes["connections"] = histConns
	prov.Sizes["hot_set"] = histHotSet

	out, res, err := runSegments(cfg.untracedSegments(), func() (*outcome, *histResult, error) {
		seg, r, _, err := histSegment(cfg, prov, requests, nil)
		return seg, r, err
	})
	if err != nil {
		return out, err
	}
	if !cfg.trace {
		return out, nil
	}

	tr := newTracer()
	tout, tres, ls, err := histSegment(cfg, prov, requests, tr)
	if err != nil {
		return out, err
	}
	out.absorb(tout)
	reportHistoryLayers(out, res, tres, ls)
	out.tracer = tr
	return out, nil
}

func mergeConns(conns []*connResult) *connResult {
	all := &connResult{query: &sample{}, byKind: map[string]*sample{}}
	for _, c := range conns {
		all.requests += c.requests
		all.ok += c.ok
		all.failed += c.failed
		all.cacheHits += c.cacheHits
		all.cells += c.cells
		all.coldScanned += c.coldScanned
		all.coldPruned += c.coldPruned
		all.rgPruned += c.rgPruned
		all.query.extend(c.query)
		for k, s := range c.byKind {
			routeSample(all.byKind, k).extend(s)
		}
	}
	return all
}

func reportHistory(out *outcome, r *histResult) {
	all := mergeConns(r.conns)
	out.attempted += all.requests
	out.failed += all.failed
	m := out.m
	secs := r.elapsed.Seconds()
	qps := ratio(float64(all.ok), secs)
	tail, tailPct := all.query.tail()
	m.set("throughput_per_s", qps)
	m.set("latency_ms_p50", all.query.p50())
	m.set("latency_ms_tail", tail)
	m.set("cpu_us_per_unit", ratio(float64(r.cpu.Microseconds()), float64(all.ok)))
	r.usage.report(m, 0)

	m.set("query_ms_p50", all.query.p50())
	m.set("query_ms_p99", all.query.pct(99))
	m.set("queries_per_s", qps)
	m.set("latency_tail_percentile", tailPct)
	m.set("failed_ops_ratio", ratio(float64(all.failed), float64(all.requests)))
	done := float64(all.ok)
	m.set("tsdb.cells_scanned_per_query", ratio(all.cells, done))
	m.set("tsdb.cache_hit_ratio", ratio(float64(all.cacheHits), done))
	m.set("tsdb.cold_segments_pruned_ratio", ratio(all.coldPruned, all.coldPruned+all.coldScanned))
	m.set("objstore.gets_per_query", ratio(float64(r.oceanGets), done))
	m.set("objstore.bytes_read_per_query", ratio(float64(r.oceanB), done))
	m.set("gateway.throttled_ratio", ratio(float64(r.gw.throttled), float64(r.gw.requests)))
	m.set("gateway.shed_ratio", ratio(float64(r.gw.shed), float64(r.gw.requests)))
	m.set("gateway.queued_max", float64(r.queuedMax))
	out.notes["query_samples"] = all.query.n()
	out.notes["cold_rowgroups_pruned_per_query"] = ratio(all.rgPruned, done)
	for _, kind := range sortedKeys(all.byKind) {
		out.notes["query_ms_p50_"+kind] = all.byKind[kind].p50()
	}
}

func reportHistoryLayers(out *outcome, untraced, traced *histResult, ls *layerSamples) {
	m := out.m
	reportHTTPLayers(m, ls)
	if ls.engineHot.n() > 0 {
		m.set("tsdb.query_hot_ms_p50", ls.engineHot.p50())
	}
	if ls.engineCold.n() > 0 {
		m.set("tsdb.query_cold_ms_p50", ls.engineCold.p50())
	}
	if ls.engine.n() > 0 {
		m.set("tsdb.cold_wall_ms", ls.coldWall.p50())
		m.set("tsdb.scan_wall_ms", ls.scanWall.p50())
		m.set("tsdb.merge_wall_ms", ls.mergeWall.p50())
		m.set("tsdb.emit_wall_ms", ls.emitWall.p50())
		m.set("columnar.rowgroups_decoded_per_query", ratio(ls.rgScanned, float64(ls.engine.n())))
		m.set("tsdb.cold_rowgroups_pruned_ratio", ratio(ls.rgPruned, ls.rgPruned+ls.rgScanned))
	}
	// Same requests, same order, spans on: the difference in the time the
	// fixed work took is what recording them cost.
	base := untraced.elapsed.Seconds()
	m.set("trace.overhead_pct", 100*ratio(traced.elapsed.Seconds()-base, base))
}
