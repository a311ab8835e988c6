package cluster

import (
	"strconv"

	"odakit/internal/obs"
	"odakit/internal/tsdb"
	"odakit/internal/wal"
)

// Instrument registers the oda_cluster_* metric family with an obs
// registry. Everything the cluster already tracks under its own locks —
// membership, per-partition replication state, stripe replica sets, the
// failure counters — is exposed by a scrape-time collector, so the
// publish/replicate hot paths gain zero instructions. The one live
// instrument is the flush-wave histogram: a WAL-backed batch observes
// it once per wave, next to the flush it times.
func (c *Cluster) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.flushWaveSeconds.Store(reg.Histogram("oda_cluster_wal_flush_wave_seconds",
		"WAL flush wave wall time: wave start to the last log's Sync returning.", obs.LatencySeconds()))
	reg.RegisterCollector(func(emit func(obs.Sample)) {
		h := c.Health()
		emit(obs.Sample{Name: "oda_cluster_nodes", Kind: obs.KindGauge,
			Help: "Cluster members.", Value: float64(h.NodesTotal)})
		emit(obs.Sample{Name: "oda_cluster_nodes_alive", Kind: obs.KindGauge,
			Help: "Cluster members currently alive.", Value: float64(h.NodesAlive)})
		emit(obs.Sample{Name: "oda_cluster_epoch", Kind: obs.KindGauge,
			Help: "Membership epoch (bumps on kill/restart/join/leave).", Value: float64(h.Epoch)})
		emit(obs.Sample{Name: "oda_cluster_failovers_total", Kind: obs.KindCounter,
			Help: "Partition leader failovers.", Value: float64(h.Failovers)})
		emit(obs.Sample{Name: "oda_cluster_rebalances_total", Kind: obs.KindCounter,
			Help: "Membership rebalances (joins and leaves).", Value: float64(h.Rebalances)})
		emit(obs.Sample{Name: "oda_cluster_lake_resyncs_total", Kind: obs.KindCounter,
			Help: "Lake stripe re-replications completed.", Value: float64(h.LakeResyncs)})
		emit(obs.Sample{Name: "oda_cluster_quorum_failures_total", Kind: obs.KindCounter,
			Help: "Publishes that missed the commit quorum.", Value: float64(h.QuorumFailures)})
		emit(obs.Sample{Name: "oda_cluster_committed_batches_total", Kind: obs.KindCounter,
			Help: "Publish batches committed at quorum.", Value: float64(c.committed.Load())})
		emit(obs.Sample{Name: "oda_cluster_replicated_records_total", Kind: obs.KindCounter,
			Help: "Records shipped leader to follower.", Value: float64(c.replicated.Load())})
		emit(obs.Sample{Name: "oda_cluster_truncated_records_total", Kind: obs.KindCounter,
			Help: "Committed records lost to beyond-quorum failures.", Value: float64(h.TruncatedHW)})
		emit(obs.Sample{Name: "oda_cluster_lost_insert_batches_total", Kind: obs.KindCounter,
			Help: "Committed lake insert batches lost with every replica of their stripe.", Value: float64(h.LostInserts)})
		emit(obs.Sample{Name: "oda_cluster_under_replicated_partitions", Kind: obs.KindGauge,
			Help: "Partitions below full replication (still serving).", Value: float64(h.UnderReplicatedPartitions)})
		emit(obs.Sample{Name: "oda_cluster_leaderless_partitions", Kind: obs.KindGauge,
			Help: "Partitions with no live replica (not serving).", Value: float64(h.LeaderlessPartitions)})
		emit(obs.Sample{Name: "oda_cluster_under_replicated_stripes", Kind: obs.KindGauge,
			Help: "Lake stripes below full replication (still serving).", Value: float64(h.UnderReplicatedStripes)})
		emit(obs.Sample{Name: "oda_cluster_down_stripes", Kind: obs.KindGauge,
			Help: "Lake stripes with no live in-sync replica.", Value: float64(h.DownStripes)})
		calls, dropped := c.transport.Stats()
		emit(obs.Sample{Name: "oda_cluster_transport_calls_total", Kind: obs.KindCounter,
			Help: "Inter-node transport messages attempted.", Value: float64(calls)})
		emit(obs.Sample{Name: "oda_cluster_transport_dropped_total", Kind: obs.KindCounter,
			Help: "Inter-node messages dropped by faults or partitions.", Value: float64(dropped)})

		// Per-partition replication lag: how far each live follower's
		// replicated end trails the committed high watermark.
		for _, t := range c.topicList() {
			for _, ps := range t.parts {
				ps.mu.Lock()
				hw := ps.hw
				lag := int64(0)
				for _, f := range ps.followers {
					if n := c.node(f); n != nil && n.Alive() {
						lag = max(lag, hw-ps.acked[f])
					}
				}
				idx := ps.idx
				ps.mu.Unlock()
				l := obs.Labels("topic", t.name, "partition", strconv.Itoa(idx))
				emit(obs.Sample{Name: "oda_cluster_replication_lag_records" + l,
					Kind: obs.KindGauge, Family: "oda_cluster_replication_lag_records",
					Help:  "Worst live-follower lag behind the high watermark, in records.",
					Value: float64(lag)})
			}
		}

		// WAL activity, aggregated across every node that has one. The
		// recovery counters always emit (they distinguish disk-backed
		// restarts from peer resyncs); the oda_wal_* I/O family emits
		// only when at least one node actually runs a WAL.
		emit(obs.Sample{Name: "oda_cluster_wal_crashes_total", Kind: obs.KindCounter,
			Help: "Nodes failed because their WAL could not persist.", Value: float64(c.walCrashes.Load())})
		emit(obs.Sample{Name: "oda_cluster_wal_flush_waves_total", Kind: obs.KindCounter,
			Help: "WAL flush waves run: one per durable publish or insert batch.", Value: float64(c.flushWaves.Load())})
		emit(obs.Sample{Name: "oda_cluster_wal_flush_wave_logs_total", Kind: obs.KindCounter,
			Help: "WAL logs flushed by flush waves.", Value: float64(c.flushWaveLogs.Load())})
		emit(obs.Sample{Name: "oda_cluster_wal_recovered_records_total", Kind: obs.KindCounter,
			Help: "Partition records rebuilt from local WALs on restart.", Value: float64(c.walRecoveredRecords.Load())})
		emit(obs.Sample{Name: "oda_cluster_wal_recovered_rows_total", Kind: obs.KindCounter,
			Help: "Lake rows rebuilt from local WALs on restart.", Value: float64(c.walRecoveredRows.Load())})
		emit(obs.Sample{Name: "oda_cluster_recoveries_total" + obs.Labels("source", "disk"),
			Kind: obs.KindCounter, Family: "oda_cluster_recoveries_total",
			Help:  "Node restarts by recovery source (disk replay vs peer resync).",
			Value: float64(c.walRecoveriesDisk.Load())})
		emit(obs.Sample{Name: "oda_cluster_recoveries_total" + obs.Labels("source", "peer"),
			Kind: obs.KindCounter, Family: "oda_cluster_recoveries_total",
			Help:  "Node restarts by recovery source (disk replay vs peer resync).",
			Value: float64(c.walRecoveriesPeer.Load())})
		emit(obs.Sample{Name: "oda_cluster_lake_wal_catchups_total", Kind: obs.KindCounter,
			Help: "Lake stripe suffix catch-ups served from a peer's WAL.", Value: float64(c.lakeCatchups.Load())})
		var ws wal.Stats
		haveWAL := false
		c.mu.RLock()
		for _, n := range c.nodes {
			if w := n.WAL(); w != nil {
				ws.Add(w.Stats())
				haveWAL = true
			}
		}
		c.mu.RUnlock()
		if haveWAL {
			emit(obs.Sample{Name: "oda_wal_appends_total", Kind: obs.KindCounter,
				Help: "WAL entries staged for append, all nodes.", Value: float64(ws.Appends)})
			emit(obs.Sample{Name: "oda_wal_appended_bytes_total", Kind: obs.KindCounter,
				Help: "WAL frame bytes flushed to segments, all nodes.", Value: float64(ws.AppendedBytes)})
			emit(obs.Sample{Name: "oda_wal_fsyncs_total", Kind: obs.KindCounter,
				Help: "WAL durability barriers (Sync) completed, all nodes.", Value: float64(ws.Fsyncs)})
			emit(obs.Sample{Name: "oda_wal_segments_rotated_total", Kind: obs.KindCounter,
				Help: "WAL segments sealed by rotation, all nodes.", Value: float64(ws.Rotations)})
			emit(obs.Sample{Name: "oda_wal_replayed_entries_total", Kind: obs.KindCounter,
				Help: "WAL entries streamed by recovery replays, all nodes.", Value: float64(ws.ReplayedEntries)})
			emit(obs.Sample{Name: "oda_wal_replayed_bytes_total", Kind: obs.KindCounter,
				Help: "Valid WAL frame bytes read by replays, all nodes.", Value: float64(ws.ReplayedBytes)})
			emit(obs.Sample{Name: "oda_wal_truncated_tails_total", Kind: obs.KindCounter,
				Help: "Torn-tail truncation events on WAL open, all nodes.", Value: float64(ws.TruncatedTails)})
			emit(obs.Sample{Name: "oda_wal_truncated_bytes_total", Kind: obs.KindCounter,
				Help: "Bytes discarded by WAL truncation, all nodes.", Value: float64(ws.TruncatedBytes)})
		}

		// Stripe replica population, summarized to one gauge per count so
		// the exposition stays O(RF) not O(stripes).
		counts := make(map[int]int)
		var buf [8]string
		for s := 0; s < tsdb.NumStripes; s++ {
			counts[len(c.stripeServers(s, true, buf[:0]))]++
		}
		for replicas := 0; replicas <= c.cfg.RF; replicas++ {
			n, ok := counts[replicas]
			if !ok && replicas != c.cfg.RF {
				continue
			}
			l := obs.Labels("replicas", strconv.Itoa(replicas))
			emit(obs.Sample{Name: "oda_cluster_stripe_replicas" + l,
				Kind: obs.KindGauge, Family: "oda_cluster_stripe_replicas",
				Help:  "Lake stripes by live in-sync replica count.",
				Value: float64(n)})
		}
	})
}
