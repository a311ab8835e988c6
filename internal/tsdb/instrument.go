package tsdb

import (
	"odakit/internal/obs"
)

// instruments are the DB's live observability hooks. The pointer lives
// behind an atomic so Instrument can be called while traffic is in
// flight; a nil pointer (the default) costs one load+branch per batch.
type instruments struct {
	insertBatches *obs.Counter
	insertRows    *obs.Counter
	queries       *obs.Counter
	cellsScanned  *obs.Counter
	cellsMatched  *obs.Counter
	queryLatency  *obs.Histogram

	// Hot-tier chunk pruning (time-range skips during shard scans).
	segsScanned *obs.Counter
	segsPruned  *obs.Counter
	// Cold-tier federation: offloaded segments and OCF row groups
	// visited vs skipped by zone-map/bloom/dictionary evidence.
	coldSegsScanned      *obs.Counter
	coldSegsPruned       *obs.Counter
	coldRowGroupsScanned *obs.Counter
	coldRowGroupsPruned  *obs.Counter
	// Rows inflated vs rows folded by cold scans, and the cold fold's
	// wall time (observed only by queries that ran one).
	coldRowsDecoded *obs.Counter
	coldCellsFolded *obs.Counter
	coldScan        *obs.Histogram
	// GLACIER interactions observed by federated queries.
	glacierPending *obs.Counter
	glacierRecalls *obs.Counter
	// Age-based offload movements (see DB.Offload).
	offloadSegments *obs.Counter
	offloadCells    *obs.Counter
	offloadBytes    *obs.Counter
}

// Instrument registers the store's metrics with an obs registry.
//
// The split follows the <3% ingest-overhead budget: the batched insert
// hot path pays exactly two striped counter adds per batch (never per
// record, no clock reads), the query path — orders of magnitude
// heavier per call — carries a latency histogram, and everything the
// store already counts under its own locks (shard row totals, segment
// counts, cache hit ratios, scan-slot load) is exposed by a scrape-time
// collector instead of being double-counted on ingest.
func (db *DB) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	db.instr.Store(&instruments{
		insertBatches: reg.Counter("oda_lake_insert_batches_total",
			"Batches rolled into the LAKE store via InsertBatch."),
		insertRows: reg.Counter("oda_lake_insert_rows_total",
			"Observations rolled into the LAKE store via InsertBatch."),
		queries: reg.Counter("oda_lake_queries_total",
			"Queries executed by the LAKE engine (cache hits included)."),
		cellsScanned: reg.Counter("oda_lake_query_cells_scanned_total",
			"Rollup cells examined by LAKE scans."),
		cellsMatched: reg.Counter("oda_lake_query_cells_matched_total",
			"Rollup cells that survived time range and filters."),
		queryLatency: reg.Histogram("oda_lake_query_seconds",
			"LAKE query wall time.", obs.LatencySeconds()),
		segsScanned: reg.Counter("oda_tsdb_segments_scanned_total",
			"Hot LAKE time-chunk segments visited by query scans."),
		segsPruned: reg.Counter("oda_tsdb_segments_pruned_total",
			"Hot LAKE time-chunk segments skipped by time-range pruning."),
		coldSegsScanned: reg.Counter("oda_tsdb_cold_segments_scanned_total",
			"Offloaded OCEAN segments decoded by federated queries."),
		coldSegsPruned: reg.Counter("oda_tsdb_cold_segments_pruned_total",
			"Offloaded OCEAN segments skipped by zone-map/bloom pruning."),
		coldRowGroupsScanned: reg.Counter("oda_tsdb_cold_rowgroups_scanned_total",
			"Cold OCF row groups decoded by federated queries."),
		coldRowGroupsPruned: reg.Counter("oda_tsdb_cold_rowgroups_pruned_total",
			"Cold OCF row groups skipped by stats/bloom/dictionary pruning."),
		coldRowsDecoded: reg.Counter("oda_tsdb_cold_rows_decoded_total",
			"Rows of the cold OCF row groups inflated by federated queries."),
		coldCellsFolded: reg.Counter("oda_tsdb_cold_cells_folded_total",
			"Cold rollup cells folded into federated query results."),
		coldScan: reg.Histogram("oda_tsdb_cold_scan_seconds",
			"Cold-tier fold wall time of federated queries that scanned the tier.", obs.LatencySeconds()),
		glacierPending: reg.Counter("oda_tsdb_glacier_pending_total",
			"Cold segments a federated query could not read (recall in flight)."),
		glacierRecalls: reg.Counter("oda_tsdb_glacier_recalls_total",
			"GLACIER recalls initiated by federated queries."),
		offloadSegments: reg.Counter("oda_offload_segments_total",
			"LAKE time chunks offloaded to the OCEAN tier."),
		offloadCells: reg.Counter("oda_offload_cells_total",
			"Rollup cells offloaded to the OCEAN tier."),
		offloadBytes: reg.Counter("oda_offload_bytes_total",
			"Encoded OCF bytes written by offloads."),
	})
	reg.RegisterCollector(func(emit func(obs.Sample)) {
		st := db.Stats()
		emit(obs.Sample{Name: "oda_lake_raw_ingested_rows", Kind: obs.KindCounter,
			Help: "Raw observations ingested into the LAKE store.", Value: float64(st.RawIngested)})
		emit(obs.Sample{Name: "oda_lake_rollup_cells", Kind: obs.KindGauge,
			Help: "Live rollup cells across all LAKE segments.", Value: float64(st.RollupCells)})
		emit(obs.Sample{Name: "oda_lake_series", Kind: obs.KindGauge,
			Help: "Series dictionary entries across all LAKE segments' cell tables.", Value: float64(st.Series)})
		emit(obs.Sample{Name: "oda_lake_segments", Kind: obs.KindGauge,
			Help: "Live LAKE time-chunk segments.", Value: float64(st.Segments)})
		emit(obs.Sample{Name: "oda_lake_scan_load", Kind: obs.KindGauge,
			Help:  "Scan-helper slot occupancy in [0,1]: a bound on query fan-out, not admission.",
			Value: float64(len(db.scanSlots)) / float64(cap(db.scanSlots))})
		cold := db.ColdStats()
		emit(obs.Sample{Name: "oda_tsdb_cold_index_bytes", Kind: obs.KindGauge,
			Help: "Resident bytes of the parsed cold segment indexes queries keep.", Value: float64(cold.IndexBytes)})
		emit(obs.Sample{Name: "oda_tsdb_cold_partial_hits_total", Kind: obs.KindCounter,
			Help: "Cacheable cold segments merged from a frozen per-segment partial.", Value: float64(cold.Partials.Hits)})
		emit(obs.Sample{Name: "oda_tsdb_cold_partial_misses_total", Kind: obs.KindCounter,
			Help: "Cacheable cold segments read and folded (their partial then frozen).", Value: float64(cold.Partials.Misses)})
		emit(obs.Sample{Name: "oda_tsdb_cold_partial_evictions_total", Kind: obs.KindCounter,
			Help: "Frozen per-segment partials evicted to keep the cache in its byte budget.", Value: float64(cold.Partials.Evictions)})
		emit(obs.Sample{Name: "oda_tsdb_cold_partial_bytes", Kind: obs.KindGauge,
			Help: "Resident bytes of the frozen per-segment partials, as the budget counts them.", Value: float64(cold.Partials.Bytes)})
		cs := db.CacheStats()
		emit(obs.Sample{Name: "oda_lake_query_cache_hits_total", Kind: obs.KindCounter,
			Help: "LAKE query-result cache hits.", Value: float64(cs.Hits)})
		emit(obs.Sample{Name: "oda_lake_query_cache_misses_total", Kind: obs.KindCounter,
			Help: "LAKE query-result cache misses.", Value: float64(cs.Misses)})
		emit(obs.Sample{Name: "oda_lake_query_cache_stale_total", Kind: obs.KindCounter,
			Help: "Stale (degraded-mode) cache answers served.", Value: float64(cs.Stale)})
		emit(obs.Sample{Name: "oda_lake_query_cache_stale_misses_total", Kind: obs.KindCounter,
			Help: "Degraded-mode lookups with no cached entry (shed instead).", Value: float64(cs.StaleMisses)})
		emit(obs.Sample{Name: "oda_lake_query_cache_entries", Kind: obs.KindGauge,
			Help: "Entries resident in the query-result cache.", Value: float64(cs.Entries)})
	})
}
