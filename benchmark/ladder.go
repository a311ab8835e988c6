package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// ladderRow is one rung of the peel ladder: the same batches pushed
// through a composition with one more layer than the rung before, so
// the difference between neighbours is what that layer costs.
type ladderRow struct {
	Rung        string  `json:"rung"`
	Batches     int     `json:"batches"`
	NsPerRecord float64 `json:"ns_per_record"`
	Delta       float64 `json:"delta_ns_per_record"`
}

const (
	ladderBatches = 256
	// The WAL rungs pay 40 flushes per batch (1 ms each under the model,
	// a real fsync each on disk), so they run fewer batches.
	ladderWALBatches = 24
	// ladderRounds is how many times the whole ladder is climbed. Each
	// rung keeps its fastest round: interference only ever adds time, and
	// climbing rung by rung within a round (rather than repeating one rung
	// three times) spreads a noisy minute over all rungs alike, which is
	// what keeps the differences between neighbours honest.
	ladderRounds = 3
)

// rungSpec names a rung, how to build it, how many batches it runs, and
// which earlier rung its delta is taken against.
type rungSpec struct {
	name    string
	batches int
	build   func() (rung, error)
	against string
}

// runLadder peels the ingest path: encode only → +stream.Broker →
// +tsdb.DB → cluster 1/RF=1 → 3/RF=1 → 3/RF=2 → +cq drain, then +WAL
// (model, and a real directory) against the same cluster at the WAL
// rungs' batch count. It fills the difference metrics that have no span
// of their own and returns one row per rung.
func runLadder(cfg runConfig, pl *pool, m metricSet) ([]ladderRow, error) {
	n, walN, rounds := ladderBatches, ladderWALBatches, ladderRounds
	if cfg.short {
		n, walN, rounds = 8, 2, 1
	}
	cluster := func(nodes, rf int, walDir func() string, model time.Duration, withCQ bool) func() (rung, error) {
		return func() (rung, error) {
			dir := ""
			if walDir != nil {
				dir = walDir()
			}
			return clusterRung(nodes, rf, dir, model, withCQ)
		}
	}
	modelDir := func() string { d, _ := walRoot(filepath.Join(cfg.tmpDir, "ladder-wal")); return d }
	realDir := func() string { return filepath.Join(cfg.tmpDir, "ladder-wal-real") }
	specs := []rungSpec{
		{"schema.encode", n, func() (rung, error) { return rung{}, nil }, ""},
		{"+stream.Broker", n, bareBrokerRung, "schema.encode"},
		{"+tsdb.DB", n, bareLakeRung, "+stream.Broker"},
		{"cluster 1/RF=1", n, cluster(1, 1, nil, 0, false), "+tsdb.DB"},
		{"cluster 3/RF=1", n, cluster(3, 1, nil, 0, false), "cluster 1/RF=1"},
		{"cluster 3/RF=2", n, cluster(3, 2, nil, 0, false), "cluster 3/RF=1"},
		{"cluster 3/RF=2 +cq drain", n, cluster(3, 2, nil, 0, true), "cluster 3/RF=2"},
		// The WAL rungs run fewer batches, so their subtrahend is the same
		// cluster without a WAL at that batch count: a short run's warm-up
		// must not read as WAL cost.
		{"cluster 3/RF=2 (WAL batch count)", walN, cluster(3, 2, nil, 0, false), ""},
		{"+WAL (flush model)", walN, cluster(3, 2, modelDir, flushModel, false), "cluster 3/RF=2 (WAL batch count)"},
		{"+WAL (real directory, no model)", walN, cluster(3, 2, realDir, 0, false), "cluster 3/RF=2 (WAL batch count)"},
	}

	best := map[string]float64{}
	for round := 0; round < rounds; round++ {
		for _, sp := range specs {
			r, err := sp.build()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sp.name, err)
			}
			ns, err := pushBatches(pl, sp.batches, r)
			if err == nil && r.fetch != nil && round == 0 {
				start := time.Now()
				var fetched int
				fetched, err = r.fetch()
				m.set("stream.fetch_ns_per_record", ratio(float64(time.Since(start).Nanoseconds()), float64(fetched)))
			}
			if r.close != nil {
				r.close()
			}
			r = rung{}
			runtime.GC() // the next rung must not pay for this one's garbage
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sp.name, err)
			}
			if prev, ok := best[sp.name]; !ok || ns < prev {
				best[sp.name] = ns
			}
		}
	}

	rows := make([]ladderRow, 0, len(specs))
	for _, sp := range specs {
		row := ladderRow{Rung: sp.name, Batches: sp.batches, NsPerRecord: best[sp.name]}
		if sp.against != "" {
			row.Delta = best[sp.name] - best[sp.against]
		}
		rows = append(rows, row)
	}
	m.set("cluster.route_ns_per_record", best["cluster 1/RF=1"]-best["+tsdb.DB"])
	m.set("cluster.replicate_ns_per_record", best["cluster 3/RF=2"]-best["cluster 3/RF=1"])
	m.set("cq.apply_ns_per_record", best["cluster 3/RF=2 +cq drain"]-best["cluster 3/RF=2"])
	m.set("wal.sync_ns_per_record", best["+WAL (flush model)"]-best["cluster 3/RF=2 (WAL batch count)"])

	// Decode is the consumer-side half of schema; no producer-side
	// composition contains it, so it has no rung of its own.
	dec, err := decodeNsPerRecord(pl, n)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	m.set("schema.decode_ns_per_record", dec)
	return rows, nil
}

// pushBatches sends the first n pool batches through a rung — encode
// always, then whichever of publish, insert and drain the rung has — and
// returns wall nanoseconds per record.
func pushBatches(pl *pool, n int, r rung) (float64, error) {
	obs := make([]observation, 0, batchSize)
	msgs := make([]message, 0, batchSize)
	records := 0
	start := time.Now()
	for k := 0; k < n; k++ {
		var topic string
		topic, obs = pl.batch(k, obs)
		msgs, _ = encodeBatch(msgs[:0], obs)
		if r.publish != nil {
			if err := r.publish(topic, msgs); err != nil {
				return 0, fmt.Errorf("publish: %w", err)
			}
		}
		if r.insert != nil {
			if err := r.insert(obs); err != nil {
				return 0, fmt.Errorf("insert: %w", err)
			}
		}
		if r.drain != nil {
			if err := r.drain(); err != nil {
				return 0, fmt.Errorf("drain: %w", err)
			}
		}
		records += len(obs)
	}
	return ratio(float64(time.Since(start).Nanoseconds()), float64(records)), nil
}

// decodeNsPerRecord times the pump's per-record decode over n batches.
func decodeNsPerRecord(pl *pool, n int) (float64, error) {
	var msgs []message
	var obs []observation
	var total time.Duration
	records := 0
	for k := 0; k < n; k++ {
		_, obs = pl.batch(k, obs)
		msgs, _ = encodeBatch(msgs[:0], obs)
		start := time.Now()
		d, err := decodeBatch(msgs)
		total += time.Since(start)
		if err != nil {
			return 0, err
		}
		records += d
	}
	return ratio(float64(total.Nanoseconds()), float64(records)), nil
}
