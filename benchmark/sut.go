package main

// sut.go is the only file that imports odakit. Every call into the
// system under test — building planes, generating telemetry, encode,
// publish, insert, query, kill/restart — goes through the functions
// here, so the signature changes on the ROADMAP (ctx-taking Stream/Lake,
// one data plane) are a one-file follow-up that alters no measurement.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	oda "odakit"
	"odakit/internal/cluster"
	"odakit/internal/core"
	"odakit/internal/cq"
	"odakit/internal/gateway"
	"odakit/internal/httpapi"
	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
	"odakit/internal/wal"
)

type (
	observation = schema.Observation
	message     = stream.Message
	frame       = schema.Frame
	query       = tsdb.Query
	queryStats  = tsdb.QueryStats
	walStats    = wal.Stats
)

const (
	batchSize      = 512              // core.Options.IngestBatch default
	retentionBytes = 8 << 20          // per partition; bounds peak RSS
	rollup         = 15 * time.Second // facility SilverWindow and tsdb default
	tenantName     = "bench"
	victimNode     = "n2"

	metricPower  = "node_power_w"
	metricMarker = "probe_seq"
	markerComp   = "probe"
)

const (
	aggMax   = tsdb.AggMax
	aggSum   = tsdb.AggSum
	aggCount = tsdb.AggCount
)

// aggName is the HTTP spelling of an aggregation.
func aggName(a tsdb.AggKind) string {
	return [...]string{"avg", "sum", "min", "max", "count", "last"}[a]
}

func framesEqual(a, b *frame) bool { return a.Equal(b) }
func frameLen(f *frame) int        { return f.Len() }
func queryName(q query) string     { return q.Fingerprint() }

// frameTotal sums a result frame's value column.
func frameTotal(f *frame) float64 {
	col, err := f.ColByName("value")
	if err != nil {
		return 0
	}
	var total float64
	for _, v := range col.Floats() {
		total += v
	}
	return total
}

var (
	t0           = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	topicPower   = core.BronzeTopic(telemetry.SourcePowerTemp)
	topicGPU     = core.BronzeTopic(telemetry.SourceGPU)
	ingestTopics = []string{topicGPU, topicPower}
)

// generate returns one source's observations for [t0, t0+span) at the
// given node scale. Telemetry is a pure function of (seed, source,
// component, metric, tick), so the same seed gives the same pool.
func generate(seed int64, scale int, src telemetry.Source, span time.Duration) ([]observation, error) {
	g := telemetry.NewGenerator(telemetry.FrontierLike(seed).Scaled(scale), nil)
	return g.CollectSource(src, t0, t0.Add(span))
}

func generatePowerTemp(seed int64, scale int, span time.Duration) ([]observation, error) {
	return generate(seed, scale, telemetry.SourcePowerTemp, span)
}

func generateGPU(seed int64, scale int, span time.Duration) ([]observation, error) {
	return generate(seed, scale, telemetry.SourceGPU, span)
}

// fullScaleRecordsPerDay is the paper-scale record rate of the two pool
// sources, for the tb_per_day_equiv annotation.
func fullScaleRecordsPerDay() float64 {
	full := telemetry.FrontierLike(1)
	var total float64
	for _, src := range []telemetry.Source{telemetry.SourcePowerTemp, telemetry.SourceGPU} {
		if spec, ok := full.Spec(src); ok {
			total += spec.RecordsPerDay()
		}
	}
	return total
}

// encodeBatch is the producer half of core.IngestWindow: one wire row and
// one key per observation, appended to msgs. It returns the payload
// bytes ("user bytes") it produced.
func encodeBatch(msgs []message, obs []observation) ([]message, int64) {
	var bytes int64
	for i := range obs {
		payload := schema.EncodeRow(obs[i].Row())
		msgs = append(msgs, message{Key: []byte(obs[i].Component), Value: payload})
		bytes += int64(len(payload))
	}
	return msgs, bytes
}

// decodeBatch is the consumer half (what cq.Pump does per record): an
// allocation-free decode back to observations. Returns how many decoded.
func decodeBatch(msgs []message) (int, error) {
	var row schema.Row
	in := schema.NewInterner()
	n := 0
	for i := range msgs {
		r, _, err := schema.DecodeRowTo(row, msgs[i].Value, in)
		if err != nil {
			return n, err
		}
		_ = schema.ObservationFromRow(r)
		row = r[:0]
		n++
	}
	return n, nil
}

func markerObservation(ts time.Time, seq int) observation {
	return observation{
		Ts: ts, System: "compass", Source: string(telemetry.SourcePowerTemp),
		Component: markerComp, Metric: metricMarker, Value: float64(seq),
	}
}

// ------------------------------------------------------------- planes

// planeConfig selects what a plane is made of. The zero value is the
// single-node facility plane.
type planeConfig struct {
	seed  int64
	scale int // facility system scale (nodes)

	nodes, rf  int           // nodes > 0 builds a cluster plane
	walDir     string        // "" keeps cluster nodes memory-only
	flushModel time.Duration // modeled device flush per wal.fsync (0 = none)

	pump   bool // run a cq.Pump with the node_power_w view registered
	marker bool // also register the one-group probe_seq view
	serve  bool // httpapi behind gateway on a loopback socket
}

// plane is one composed system under test: a facility (always — httpapi
// and the CQ engine hang off it) and, for clustered workloads, an
// in-process cluster that takes the writes and serves the lake reads.
type plane struct {
	cfg planeConfig
	fac *core.Facility
	cl  *cluster.Cluster

	view, marker *cq.View
	pump         *cq.Pump
	pumpCancel   context.CancelFunc
	pumpDone     chan error

	api     *httpapi.Server
	gw      *gateway.Gateway
	srv     *http.Server
	baseURL string
	prep    string // prepared-statement handle

	modelMu  sync.Mutex
	modelLat []time.Duration // achieved flush-model sleeps
}

func newPlane(cfg planeConfig) (*plane, error) {
	if cfg.scale <= 0 {
		cfg.scale = 64
	}
	f, err := oda.NewFacility(oda.Options{
		System:               oda.FrontierLike(cfg.seed).Scaled(cfg.scale),
		WorkloadSeed:         cfg.seed,
		StreamRetentionBytes: retentionBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("facility: %w", err)
	}
	p := &plane{cfg: cfg, fac: f}
	if cfg.nodes > 0 {
		if p.cl, err = newCluster(cfg.nodes, cfg.rf, cfg.walDir); err != nil {
			p.close()
			return nil, err
		}
		p.cl.Instrument(f.Obs)
		p.installFlushModel()
	}
	if cfg.pump {
		if err := p.startPump(); err != nil {
			p.close()
			return nil, err
		}
	}
	if cfg.serve {
		if err := p.startServer(); err != nil {
			p.close()
			return nil, err
		}
	}
	return p, nil
}

// newCluster builds the odaserve -cluster-nodes composition: n in-process
// nodes, the facility's rollup geometry, both ingest topics replicated.
func newCluster(n, rf int, walDir string) (*cluster.Cluster, error) {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i+1)
	}
	c, err := cluster.New(ids, cluster.Config{
		RF: rf, LakeOptions: tsdb.Options{RollupInterval: rollup}, WALDir: walDir,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	for _, t := range ingestTopics {
		if err := c.CreateTopic(t, stream.TopicConfig{Partitions: 4, RetentionBytes: retentionBytes}); err != nil {
			return nil, fmt.Errorf("cluster topic %s: %w", t, err)
		}
	}
	return c, nil
}

// installFlushModel prices every wal.fsync with the modeled device
// flush, identically on every machine, and records the sleeps achieved.
// Restart swaps a node's WAL handle, so it is re-run after a restart.
func (p *plane) installFlushModel() {
	if p.cl == nil || p.cfg.walDir == "" || p.cfg.flushModel <= 0 {
		return
	}
	hook := func(op, _ string) error {
		if op != wal.OpFsync {
			return nil
		}
		start := time.Now()
		time.Sleep(p.cfg.flushModel)
		d := time.Since(start)
		p.modelMu.Lock()
		p.modelLat = append(p.modelLat, d)
		p.modelMu.Unlock()
		return nil
	}
	for _, id := range p.cl.Nodes() {
		if w := p.cl.NodeWAL(id); w != nil {
			w.SetFaultHook(hook)
		}
	}
}

func (p *plane) flushModelSleeps() []time.Duration {
	p.modelMu.Lock()
	defer p.modelMu.Unlock()
	return append([]time.Duration(nil), p.modelLat...)
}

func (p *plane) startPump() error {
	var err error
	p.view, err = p.fac.CQ.Register(cq.Spec{
		Name:        metricPower,
		Filters:     map[string][]string{tsdb.DimMetric: {metricPower}},
		GroupBy:     []string{tsdb.DimComponent},
		Granularity: rollup,
		Window:      5 * time.Minute,
	})
	if err != nil {
		return fmt.Errorf("cq register: %w", err)
	}
	if p.cfg.marker {
		p.marker, err = p.fac.CQ.Register(cq.Spec{
			Name:    metricMarker,
			Filters: map[string][]string{tsdb.DimMetric: {metricMarker}},
			Agg:     tsdb.AggMax,
			Window:  5 * time.Minute,
		})
		if err != nil {
			return fmt.Errorf("cq register marker: %w", err)
		}
	}
	if p.cl != nil {
		p.pump, err = cq.NewPumpSource(p.fac.CQ, p.cl, cq.PumpConfig{Topics: ingestTopics})
	} else {
		p.pump, err = p.fac.NewCQPump("", telemetry.SourcePowerTemp, telemetry.SourceGPU)
	}
	if err != nil {
		return fmt.Errorf("cq pump: %w", err)
	}
	p.runPump()
	return nil
}

// runPump starts cq.Pump.Run in the background, as odaserve -cq does.
func (p *plane) runPump() {
	ctx, cancel := context.WithCancel(context.Background())
	p.pumpCancel, p.pumpDone = cancel, make(chan error, 1)
	go func() { p.pumpDone <- p.pump.Run(ctx) }()
}

// stopPump stops the background pump and waits for it; a pump that died
// with anything but the cancellation is an error.
func (p *plane) stopPump() error {
	if p.pumpCancel == nil {
		return nil
	}
	p.pumpCancel()
	err := <-p.pumpDone
	p.pumpCancel = nil
	if err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("cq pump: %w", err)
	}
	return nil
}

// drainPump stops the background pump and pumps inline until lag is zero.
func (p *plane) drainPump() error {
	if p.pump == nil {
		return nil
	}
	if err := p.stopPump(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return p.pump.Drain(ctx)
}

func (p *plane) startServer() error {
	p.api = httpapi.New(p.fac)
	if p.cl != nil {
		p.api.SetQueryBackend(p.cl)
		p.api.SetClusterHealth(p.cl.Health)
	}
	p.gw = gateway.New(p.api, gateway.Options{
		Platform: p.fac.Apps, Registry: p.fac.Obs, Slots: p.fac.Lake.ScanSlotCap(),
	})
	// Quotas sized never to throttle two closed-loop connections, and to
	// fit the platform capacity the registration draws from (a core per
	// 50 req/s plus a core per 5M scan cells/s, of 512).
	if err := p.gw.RegisterTenant(gateway.TenantConfig{
		Name: tenantName, Priority: gateway.PriorityInteractive,
		RatePerSec: 20_000, ScanCellsPerSec: 5e8,
	}); err != nil {
		return fmt.Errorf("gateway tenant: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	p.srv = &http.Server{Handler: p.gw, ReadHeaderTimeout: 5 * time.Second}
	p.baseURL = "http://" + ln.Addr().String()
	go func() { _ = p.srv.Serve(ln) }()
	return nil
}

// close stops everything the plane started and waits for it.
func (p *plane) close() {
	if p.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = p.srv.Shutdown(ctx)
		cancel()
	}
	_ = p.stopPump()
	if p.cl != nil {
		for _, id := range p.cl.Nodes() {
			if w := p.cl.NodeWAL(id); w != nil {
				w.SetFaultHook(nil)
				_ = w.Close()
			}
		}
	}
	if p.fac != nil {
		p.fac.Close()
	}
	if p.cfg.walDir != "" {
		_ = os.RemoveAll(p.cfg.walDir)
	}
}

// ------------------------------------------------ write and read path

func (p *plane) publish(topic string, msgs []message) error {
	var err error
	if p.cl != nil {
		_, err = p.cl.PublishBatch(topic, msgs)
	} else {
		_, err = p.fac.Broker.PublishBatch(topic, msgs)
	}
	return err
}

func (p *plane) insert(obs []observation) error {
	if p.cl != nil {
		return p.cl.InsertBatch(obs)
	}
	return p.fac.Lake.InsertBatch(obs)
}

func (p *plane) run(q query) (*frame, queryStats, error) {
	if p.cl != nil {
		return p.cl.RunWithStats(q)
	}
	return p.fac.Lake.RunWithStats(q)
}

// endOffsets sums the committed end offsets of every ingest partition:
// the exactly-once count of records the STREAM tier holds or ever held.
func (p *plane) endOffsets() (int64, error) {
	var total int64
	for _, t := range ingestTopics {
		for part := 0; part < 4; part++ {
			var end int64
			var err error
			if p.cl != nil {
				end, err = p.cl.EndOffset(t, part)
			} else {
				end, err = p.fac.Broker.EndOffset(t, part)
			}
			if err != nil {
				return 0, fmt.Errorf("end offset %s/%d: %w", t, part, err)
			}
			total += end
		}
	}
	return total, nil
}

// viewQuery is the batch query equivalent to a view read: same shape,
// the window the read answered for.
func viewQuery(v *cq.View, info cq.WindowInfo) query {
	return query{
		From: info.From, To: info.To, Filters: v.Spec.Filters,
		GroupBy: v.Spec.GroupBy, Granularity: v.Spec.Granularity, Agg: v.Spec.Agg,
	}
}

// readView reads a standing view; hot reports a generation-cache hit.
func readView(v *cq.View) (fr *frame, info cq.WindowInfo, hot bool) {
	fr, info = v.Read()
	return fr, info, info.CacheHit
}

// views lists the standing views the plane registered.
func (p *plane) views() []*cq.View {
	var out []*cq.View
	for _, v := range []*cq.View{p.view, p.marker} {
		if v != nil {
			out = append(out, v)
		}
	}
	return out
}

func (p *plane) apiHandler() http.Handler { return p.api }
func (p *plane) gwHandler() http.Handler  { return p.gw }

// viewReadCosts times the two ways a view read is served, n times each:
// a full re-fold of the resident window (what the first read after every
// applied batch pays) and a generation-cache hit.
func viewReadCosts(v *cq.View, n int) (fold, hot *sample, cells int64) {
	fold, hot = &sample{}, &sample{}
	for i := 0; i < n; i++ {
		v.Invalidate()
		start := time.Now()
		_, info := v.Read()
		fold.add(time.Since(start))
		cells = info.Cells
		start = time.Now()
		v.Read()
		hot.add(time.Since(start))
	}
	return fold, hot, cells
}

// pumpWatermark is how far (in event time) the pump has fed the views.
func (p *plane) pumpWatermark() time.Time { return p.view.Stats().Watermark }

func (p *plane) viewCells() int64 {
	var n int64
	for _, st := range p.fac.CQ.Stats() {
		n += st.Cells
	}
	return n
}

// offloadBefore ages every whole chunk before cutoff into the OCEAN lake
// bucket and returns the cells moved.
func (p *plane) offloadBefore(cutoff time.Time) (int64, error) {
	st, err := p.fac.Lake.Offload(cutoff)
	return st.Cells, err
}

// counter reads one obs-registry counter by name (0 when absent).
func (p *plane) counter(name string) int64 { return p.fac.Obs.Counter(name, "").Value() }

func (p *plane) oceanReads() (gets, bytes int64) {
	return p.counter("oda_ocean_gets_total"), p.counter("oda_ocean_get_bytes_total")
}

type gatewayCounts struct {
	requests, throttled, shed int64
	queued                    int
}

func (p *plane) gatewayCounts() gatewayCounts {
	var g gatewayCounts
	if p.gw == nil {
		return g
	}
	snap := p.gw.Stats()
	for _, t := range snap.Tenants {
		g.requests += int64(t.Requests)
		g.throttled += int64(t.Throttled)
	}
	g.queued = snap.Queued
	g.shed = p.counter("oda_gateway_shed_total")
	return g
}

// walTotals sums every node's WAL counters (zero without a WAL).
func (p *plane) walTotals() walStats {
	var total walStats
	if p.cl == nil {
		return total
	}
	for _, id := range p.cl.Nodes() {
		if w := p.cl.NodeWAL(id); w != nil {
			total.Add(w.Stats())
		}
	}
	return total
}

// killAndRecover crashes the victim node, restarts it from its WAL, and
// repairs until the cluster reports full health. It returns the restart
// (WAL replay) time, the total kill→healthy time, and what was replayed.
func (p *plane) killAndRecover() (replay, total time.Duration, replayed walStats, err error) {
	start := time.Now()
	if err = p.cl.Kill(victimNode); err != nil {
		return
	}
	restart := time.Now()
	if err = p.cl.Restart(victimNode); err != nil {
		return
	}
	replay = time.Since(restart)
	if w := p.cl.NodeWAL(victimNode); w != nil {
		replayed = w.Stats()
	}
	p.installFlushModel()
	for p.cl.Health().Status != "ok" {
		if err = p.cl.Repair(); err != nil {
			return
		}
		if time.Since(start) > 60*time.Second {
			err = errors.New("cluster did not return to health within 60s")
			return
		}
	}
	return replay, time.Since(start), replayed, nil
}

// ------------------------------------------- references and the ladder

// referenceLake is the single-node tsdb.DB the correctness gate feeds the
// same observations and compares byte-for-byte.
type referenceLake struct{ db *tsdb.DB }

func newReferenceLake() *referenceLake {
	return &referenceLake{db: tsdb.New(tsdb.Options{RollupInterval: rollup})}
}

func (r *referenceLake) insert(obs []observation) error { return r.db.InsertBatch(obs) }
func (r *referenceLake) run(q query) (*frame, error)    { return r.db.Run(q) }

// rung is one step of the peel ladder: the smallest composition that
// contains the named layer, with nil funcs for what is peeled off.
type rung struct {
	name    string
	publish func(topic string, msgs []message) error
	insert  func(obs []observation) error
	fetch   func() (int, error)
	drain   func() error
	close   func()
}

func bareBrokerRung() (rung, error) {
	b := stream.NewBroker()
	for _, t := range ingestTopics {
		if err := b.CreateTopic(t, stream.TopicConfig{Partitions: 4, RetentionBytes: retentionBytes}); err != nil {
			return rung{}, err
		}
	}
	return rung{
		publish: func(t string, m []message) error { _, err := b.PublishBatch(t, m); return err },
		fetch:   func() (int, error) { return fetchAll(b) },
		close:   b.Close,
	}, nil
}

// fetchAll reads back every retained record once, in pump-sized polls:
// the consumer-side STREAM cost the pump pays before decode.
func fetchAll(b *stream.Broker) (int, error) {
	n := 0
	for _, t := range ingestTopics {
		for part := 0; part < 4; part++ {
			off, err := b.OldestOffset(t, part)
			if err != nil {
				return n, err
			}
			for {
				recs, err := b.FetchNoWait(t, part, off, batchSize)
				if err != nil {
					return n, err
				}
				if len(recs) == 0 {
					break
				}
				n += len(recs)
				off = recs[len(recs)-1].Offset + 1
			}
		}
	}
	return n, nil
}

func bareLakeRung() (rung, error) {
	r, err := bareBrokerRung()
	if err != nil {
		return r, err
	}
	db := tsdb.New(tsdb.Options{RollupInterval: rollup})
	r.insert = db.InsertBatch
	return r, nil
}

// clusterRung builds a cluster-only composition; model > 0 installs the
// device flush model on its WALs; withCQ adds an inline-drained pump.
func clusterRung(n, rf int, walDir string, model time.Duration, withCQ bool) (rung, error) {
	p := &plane{cfg: planeConfig{nodes: n, rf: rf, walDir: walDir, flushModel: model}}
	var err error
	if p.cl, err = newCluster(n, rf, walDir); err != nil {
		return rung{}, err
	}
	p.installFlushModel()
	r := rung{publish: p.publish, insert: p.insert, close: p.close}
	if withCQ {
		e := cq.NewEngine(cq.Config{RollupInterval: rollup})
		if _, err := e.Register(cq.Spec{
			Name:        metricPower,
			Filters:     map[string][]string{tsdb.DimMetric: {metricPower}},
			GroupBy:     []string{tsdb.DimComponent},
			Granularity: rollup,
			Window:      5 * time.Minute,
		}); err != nil {
			p.close()
			return rung{}, err
		}
		pump, err := cq.NewPumpSource(e, p.cl, cq.PumpConfig{Topics: ingestTopics})
		if err != nil {
			p.close()
			return rung{}, err
		}
		r.drain = func() error { return pump.Drain(context.Background()) }
	}
	return r, nil
}

// realFsyncProbe prices the real device once: n append+sync rounds of
// one 512-record insert entry through internal/wal in dir, no model.
func realFsyncProbe(dir string, obs []observation, n int) ([]time.Duration, error) {
	w, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer w.Close()
	l, err := w.Log("probe")
	if err != nil {
		return nil, err
	}
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		if err := l.Append(wal.Entry{Kind: wal.KindInsert, Seq: int64(i + 1), Obs: obs}); err != nil {
			return out, err
		}
		start := time.Now()
		if err := l.Sync(); err != nil {
			return out, err
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}

// ------------------------------------------------------------ helpers

// shmWALPrefix names the WAL directories on tmpfs; the owner's pid
// follows it, so a later run can tell a dead run's leftovers from a
// live run's files.
const shmWALPrefix = "odabench-wal-"

// walRoot picks where WAL directories live: tmpfs when the machine has
// one (fsync there is free, so the flush model alone prices a flush),
// else a directory inside the checkout.
func walRoot(fallback string) (dir, fs string) {
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		sweepStaleWALDirs("/dev/shm")
		if d, err := os.MkdirTemp("/dev/shm", fmt.Sprintf("%s%d-", shmWALPrefix, os.Getpid())); err == nil {
			return d, "tmpfs"
		}
	}
	_ = os.MkdirAll(fallback, 0o755)
	d, err := os.MkdirTemp(fallback, "wal-")
	if err != nil {
		d = filepath.Join(fallback, "wal")
	}
	return d, "disk"
}

// sweepStaleWALDirs removes the WAL directories of runs that no longer
// exist. plane.close removes a run's own, but a run killed on a timeout
// never gets there, and what it leaves on tmpfs is RAM.
func sweepStaleWALDirs(root string) {
	dirs, _ := filepath.Glob(filepath.Join(root, shmWALPrefix+"*"))
	for _, d := range dirs {
		var pid int
		if _, err := fmt.Sscanf(filepath.Base(d), shmWALPrefix+"%d-", &pid); err != nil || pid <= 0 {
			continue
		}
		if err := syscall.Kill(pid, 0); errors.Is(err, syscall.ESRCH) {
			_ = os.RemoveAll(d)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
