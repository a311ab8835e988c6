package telemetry

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"odakit/internal/jobsched"
	"odakit/internal/schema"
)

// NodeLoad supplies job context for the power model. *jobsched.Schedule
// implements it; a nil NodeLoad models an idle machine.
type NodeLoad interface {
	JobAt(node int, t time.Time) *jobsched.Job
}

// Generator synthesizes observations and events for one system. It is
// stateless and safe for concurrent use: every reading is a pure function
// of (config seed, source, component, metric, tick).
type Generator struct {
	cfg  SystemConfig
	load NodeLoad
	sys  uint64 // hash of system name, folded into every sample hash
}

// NewGenerator returns a generator for the system. load may be nil.
func NewGenerator(cfg SystemConfig, load NodeLoad) *Generator {
	return &Generator{cfg: cfg, load: load, sys: hashStr(cfg.Name)}
}

// Config returns the generator's system configuration.
func (g *Generator) Config() SystemConfig { return g.cfg }

// jobShape returns the normalized load of the job on a node at t, plus
// whether a job is present.
func (g *Generator) jobShape(node int, t time.Time) (float64, *jobsched.Job) {
	if g.load == nil {
		return 0, nil
	}
	j := g.load.JobAt(node, t)
	if j == nil {
		return 0, nil
	}
	phase := unit(hashStr(j.ID))
	s := ProfileShape(j.Profile, t.Sub(j.Start), j.Period, phase)
	return s * j.Intensity, j
}

// NodePower returns the modeled node power draw in watts, before sensor
// noise. The digital twin uses the same function, which is what makes
// telemetry replay validation (Fig 11) exact up to noise.
func (g *Generator) NodePower(node int, t time.Time) float64 {
	shape, _ := g.jobShape(node, t)
	return g.cfg.IdlePowerW + shape*(g.cfg.MaxPowerW-g.cfg.IdlePowerW)
}

// TotalPower returns the machine's total compute power draw in watts.
func (g *Generator) TotalPower(t time.Time) float64 {
	sum := 0.0
	for n := 0; n < g.cfg.Nodes; n++ {
		sum += g.NodePower(n, t)
	}
	return sum
}

// streams are a component's per-sample hash streams, sample loss and the
// two noise draws, each a hash64 state already folded over (system, seed,
// stream tag, source hash, component).
type streams struct{ loss, noise1, noise2 uint64 }

func (g *Generator) componentStreams(srcH uint64, comp int) streams {
	pre := func(tag uint64) uint64 { return hash64(g.sys, uint64(g.cfg.Seed), tag, srcH, uint64(comp)) }
	return streams{loss: pre(0x1055), noise1: pre(0xa0), noise2: pre(0xb1)}
}

// sampleKey names one reading: its component's streams, its metric and
// its tick.
type sampleKey struct {
	streams
	m, ts uint64
}

// draw finishes a stream with the reading's metric and tick: the hash64
// of the stream's five values and these two.
func (k sampleKey) draw(stream uint64) uint64 { return mix(mix(stream, k.m), k.ts) }

// noise applies multiplicative Gaussian sensor noise keyed by identity.
func (g *Generator) noise(v float64, k sampleKey) float64 {
	if g.cfg.NoiseFrac <= 0 {
		return v
	}
	return v * (1 + g.cfg.NoiseFrac*gauss(k.draw(k.noise1), k.draw(k.noise2)))
}

// lost reports whether this sample is dropped by the loss model.
func (g *Generator) lost(k sampleKey) bool {
	if g.cfg.LossRate <= 0 {
		return false
	}
	return unit(k.draw(k.loss)) < g.cfg.LossRate
}

// skew returns the fixed clock offset of a component within the source
// whose name hashes to srcH.
func (g *Generator) skew(srcH uint64, component int) time.Duration {
	if g.cfg.SkewMax <= 0 {
		return 0
	}
	h := hash64(g.sys, uint64(g.cfg.Seed), srcH, uint64(component), 0x5be3)
	return time.Duration(unit(h) * float64(g.cfg.SkewMax))
}

// Sink receives generated observations. Returning an error aborts emission.
type Sink func(schema.Observation) error

// firstTick is the first multiple of interval at or after from.
func firstTick(from time.Time, interval time.Duration) time.Time {
	tick := from.Truncate(interval)
	if tick.Before(from) {
		tick = tick.Add(interval)
	}
	return tick
}

// EmitSource generates all observations of one source whose nominal tick
// falls in [from, to), invoking sink for each surviving (non-lost) sample
// in deterministic order: tick-major, then component, then metric.
//
// What readings share is computed once: the source's components per call,
// the machine's power per tick, a component's load per tick. A record
// allocates nothing.
func (g *Generator) EmitSource(src Source, from, to time.Time, sink Sink) error {
	spec, ok := g.cfg.Spec(src)
	if !ok {
		return fmt.Errorf("telemetry: unknown source %q", src)
	}
	comps := g.components(src, spec.Components)
	for tick := firstTick(from, spec.Interval); tick.Before(to); tick = tick.Add(spec.Interval) {
		var totalPower float64
		if src == SourceFacility {
			totalPower = g.TotalPower(tick)
		}
		ts := uint64(tick.UnixNano())
		for c := range comps {
			comp := &comps[c]
			sampleTs := tick.Add(comp.skew)
			ld := g.componentLoad(src, c, tick)
			for m := 0; m < spec.Metrics; m++ {
				k := sampleKey{comp.streams, uint64(m), ts}
				if g.lost(k) {
					continue
				}
				name, value := g.sampleBase(src, c, m, k, ld, totalPower)
				if src == SourcePowerTemp && len(g.cfg.Anomalies) > 0 {
					value = g.applyAnomalies(c, name, tick, value)
				}
				obs := schema.Observation{
					Ts: sampleTs, System: g.cfg.Name, Source: string(src),
					Component: comp.name, Metric: name, Value: value,
				}
				if err := sink(obs); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// component is what one component of a source keeps across the ticks of
// an EmitSource call.
type component struct {
	name string
	skew time.Duration
	streams
}

// components builds a source's n components. Their names are written into
// one string that all of them share, so the table costs two allocations
// however many components there are.
func (g *Generator) components(src Source, n int) []component {
	srcH := hashStr(string(src))
	var sb strings.Builder
	sb.Grow(16 * n)
	var buf [32]byte
	comps := make([]component, n)
	for c := range comps {
		start := sb.Len()
		sb.Write(g.appendComponentName(buf[:0], src, c))
		comps[c] = component{name: sb.String()[start:], skew: g.skew(srcH, c), streams: g.componentStreams(srcH, c)}
	}
	return comps
}

func (g *Generator) appendComponentName(b []byte, src Source, comp int) []byte {
	switch src {
	case SourceGPU:
		b = appendPadded(append(b, "node"...), comp/g.cfg.GPUsPerNode, 5)
		return strconv.AppendInt(append(b, ".gpu"...), int64(comp%g.cfg.GPUsPerNode), 10)
	case SourceStorageSystem:
		return appendPadded(append(b, "oss"...), comp, 4)
	case SourceFabric:
		return appendPadded(append(b, "switch"...), comp, 4)
	case SourceFacility:
		return appendPadded(append(b, "cep"...), comp, 4)
	default:
		return appendPadded(append(b, "node"...), comp, 5)
	}
}

// appendPadded appends v in decimal, zero-padded to width digits: what
// fmt's %0<width>d prints.
func appendPadded(b []byte, v, width int) []byte {
	var d [20]byte
	digits := strconv.AppendInt(d[:0], int64(v), 10)
	for i := len(digits); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// facility sensor channel kinds, cycled by sensor index.
var facilityKinds = []string{
	"supply_temp_c", "return_temp_c", "flow_lps", "pump_kw", "cep_power_kw", "valve_pos_pct",
}

// The metric names that carry an index, formatted once.
var (
	gpuPowerNames = indexedNames("gpu%d_power_w", 4)
	ctrNames      = indexedNames("ctr_%02d", perfMetrics)
	srvCtrNames   = indexedNames("srv_ctr_%02d", storageSrvM)
	swCtrNames    = indexedNames("sw_ctr_%02d", fabricSrvM)
)

func indexedNames(format string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf(format, i)
	}
	return names
}

// compLoad is what every reading of one component at one tick shares:
// its node's job and that job's load shape on a compute source, its
// background load on a server-side one.
type compLoad struct {
	shape float64
	job   *jobsched.Job
}

func (g *Generator) componentLoad(src Source, comp int, tick time.Time) compLoad {
	switch src {
	case SourcePowerTemp, SourcePerfCounters, SourceStorageClient, SourceFabricClient:
		shape, j := g.jobShape(comp, tick)
		return compLoad{shape, j}
	case SourceGPU:
		shape, j := g.jobShape(comp/g.cfg.GPUsPerNode, tick)
		return compLoad{shape, j}
	case SourceStorageSystem, SourceFabric:
		// Server load follows a diurnal curve plus hashed per-server bias.
		return compLoad{shape: g.background(comp, tick)}
	default:
		return compLoad{}
	}
}

// sampleBase computes the anomaly-free (metric name, value) of one
// reading from its component's load, or for the facility from the
// machine's total power.
func (g *Generator) sampleBase(src Source, comp, m int, k sampleKey, ld compLoad, totalPower float64) (string, float64) {
	shape := ld.shape
	switch src {
	case SourcePowerTemp:
		dyn := shape * (g.cfg.MaxPowerW - g.cfg.IdlePowerW)
		switch m {
		case 0:
			return "node_power_w", g.noise(g.cfg.IdlePowerW+dyn, k)
		case 1:
			return "cpu_power_w", g.noise(0.15*g.cfg.IdlePowerW+0.2*dyn, k)
		case 2, 3, 4, 5:
			return gpuPowerNames[m-2], g.noise(0.1*g.cfg.IdlePowerW+0.18*dyn, k)
		case 6:
			return "cpu_temp_c", g.noise(30+40*shape, k)
		case 7:
			return "gpu_temp_c", g.noise(33+45*shape, k)
		case 8:
			return "mem_power_w", g.noise(0.08*g.cfg.IdlePowerW+0.06*dyn, k)
		default:
			return "inlet_temp_c", g.noise(32+0.5*shape, k)
		}
	case SourcePerfCounters:
		// Counter rates scale with load; each counter has its own magnitude.
		mag := float64(uint64(1) << (10 + m%20))
		return ctrNames[m], g.noise(mag*(0.05+shape), k)
	case SourceGPU:
		switch m {
		case 0:
			return "gpu_util_pct", clamp(g.noise(100*shape, k), 0, 100)
		case 1:
			return "occupancy_pct", clamp(g.noise(80*shape, k), 0, 100)
		case 2:
			return "mem_used_gb", clamp(g.noise(8+100*shape, k), 0, 128)
		case 3:
			return "mem_bw_gbps", clamp(g.noise(1600*shape, k), 0, 3200)
		default:
			return "sm_clock_mhz", clamp(g.noise(800+900*shape, k), 500, 2100)
		}
	case SourceStorageClient:
		io := 0.1 * shape
		if ld.job != nil && ld.job.Profile == jobsched.ProfileSpiky {
			io = shape // IO-bound jobs move data in their spikes
		}
		switch m {
		case 0:
			return "read_bytes_mbps", g.noise(2000*io, k)
		case 1:
			return "write_bytes_mbps", g.noise(1200*io, k)
		case 2:
			return "read_ops", g.noise(5000*io, k)
		case 3:
			return "write_ops", g.noise(3000*io, k)
		case 4:
			return "opens", g.noise(20*io, k)
		default:
			return "metadata_ops", g.noise(800*io, k)
		}
	case SourceFabricClient:
		switch m {
		case 0:
			return "tx_mbps", g.noise(9000*shape, k)
		case 1:
			return "rx_mbps", g.noise(9000*shape, k)
		case 2:
			return "tx_pkts_k", g.noise(800*shape, k)
		case 3:
			return "rx_pkts_k", g.noise(800*shape, k)
		case 4:
			return "congestion_pct", clamp(g.noise(25*shape, k), 0, 100)
		default:
			return "retries", g.noise(4*shape, k)
		}
	case SourceStorageSystem:
		return srvCtrNames[m], g.noise(1000*shape*float64(1+m%4), k)
	case SourceFabric:
		return swCtrNames[m], g.noise(5000*shape*float64(1+m%3), k)
	case SourceFacility:
		kind := facilityKinds[comp%len(facilityKinds)]
		mw := totalPower / 1e6
		switch kind {
		case "supply_temp_c":
			return kind, g.noise(32, k)
		case "return_temp_c":
			// Water heats with load: ~4 C swing across the power range.
			span := g.cfg.MaxPowerW * float64(g.cfg.Nodes) / 1e6
			return kind, g.noise(32+6*mw/span, k)
		case "flow_lps":
			return kind, g.noise(300+40*mw, k)
		case "pump_kw":
			return kind, g.noise(50+8*mw, k)
		case "cep_power_kw":
			return kind, g.noise(totalPower/1000*1.06, k) // + conversion losses
		default:
			return kind, clamp(g.noise(40+3*mw, k), 0, 100)
		}
	default:
		panic(fmt.Sprintf("telemetry: no model for source %q", src))
	}
}

// background models non-compute component load: diurnal + per-component bias.
func (g *Generator) background(comp int, tick time.Time) float64 {
	hour := float64(tick.Hour()) + float64(tick.Minute())/60
	diurnal := 0.6 + 0.4*sinDay(hour)
	bias := 0.7 + 0.6*unit(hash64(g.sys, uint64(comp), 0xb1a5))
	return diurnal * bias
}

func sinDay(hour float64) float64 {
	// Peak mid-afternoon, trough early morning; range [0,1].
	return 0.5 + 0.5*math.Cos(2*math.Pi*(hour-15)/24)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// CollectSource gathers a source's observations for a window into a slice.
// Intended for tests and small windows; large flows should stream via
// EmitSource into the broker.
func (g *Generator) CollectSource(src Source, from, to time.Time) ([]schema.Observation, error) {
	var out []schema.Observation
	if spec, ok := g.cfg.Spec(src); ok && spec.Interval > 0 {
		if first := firstTick(from, spec.Interval); first.Before(to) {
			ticks := int((to.Sub(first)-1)/spec.Interval) + 1
			out = make([]schema.Observation, 0, ticks*spec.Components*spec.Metrics)
		}
	}
	err := g.EmitSource(src, from, to, func(o schema.Observation) error {
		out = append(out, o)
		return nil
	})
	return out, err
}
