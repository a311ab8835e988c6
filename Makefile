GO ?= go

.PHONY: all build vet test bench-smoke loc-delta race chaos chaos-cluster bench bench-query bench-obs bench-federate bench-serve bench-cq bench-cluster fuzz-smoke verify clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The tests include the repository's shape rules (shape_test.go: one
# STREAM reader, one LAKE read path, one cell format — a CQ checkpoint's
# cells included: internal/cq declares no cell-serialization type and
# never walks a CellTable cell by cell — one grouping loop,
# one sort, one log, one failure contract — internal/cluster keeps no
# staged-batch fingerprint: a replica cuts what no quorum committed, so a
# retry of Failed is just a publish — one wait, one consumer loop, one entry point per
# operation, one retry convention — no *resilience.Policy field in internal/ —
# one fault seam — a surface holds a faults.Hook and fires it with a faults op —
# no knob nobody turns — the removed config fields stay deleted — one cold scan, one parse per segment object — internal/tsdb
# never calls columnar.NewFileReader, it binds a segment's kept index —
# one filter test per series — GroupTable.Fold never calls Match, it
# memoizes each series' admission and group — one chunk decoder, one interner,
# one series encoder — httpapi appends series points, it reflects none —
# one parameter reader, a series is an integer, a group is an integer —
# its slot holds no string, FoldColumns builds no Series — and one cluster harness:
# internal/cluster's tests make a cluster only in build), checked over
# the parsed sources.
test:
	$(GO) test ./...

# The repo's benchmark (benchmark/, see BENCHMARK.json) is its own Go
# module, so the root build, vet and test never compile it. This target
# does: an internal/ signature change that breaks benchmark/sut.go fails
# here instead of in the driver's run. The cold-scan and OCF-write
# microbenchmarks, the partition log's append + fetch, the LAKE insert
# and cell-table growth ones, the grouped and filtered cold folds (on the
# harness's shape and on unlapped telemetry), the replicated ingest loop, the
# CQ pump's checkpoint of a 61 440-cell view (B/ckpt) and the
# Silver job's windowed fold + SQL query, and the generator's cost per
# record on each source, run once each so they cannot rot either.
bench-smoke:
	(cd benchmark && $(GO) vet ./... && $(GO) test ./...)
	$(GO) test -bench 'EmitSource' -benchtime 1x -run xxx ./internal/telemetry
	$(GO) test -bench 'EncodeObservationRow|DecodeObservationRow' -benchtime 1x -run xxx ./internal/schema
	$(GO) test -bench 'PartitionAppendFetch' -benchtime 1x -run xxx ./internal/stream
	$(GO) test -bench 'ScanColumnsCold|WriteTelemetry' -benchtime 1x -run xxx ./internal/columnar
	$(GO) test -bench 'Insert$$|CellTableGrow|ColdFoldGrouped|ColdFoldFiltered|ColdFoldTelemetry' -benchtime 1x -run xxx ./internal/tsdb
	$(GO) test -bench 'ClusterIngestBatch' -benchtime 1x -run xxx ./internal/cluster
	$(GO) test -bench 'PumpCheckpoint' -benchtime 1x -run xxx ./internal/cq
	$(GO) test -bench 'WindowedThroughput|SQLQuery' -benchtime 1x -run xxx ./internal/sproc

# Net Go line delta of the working tree versus BASE — the numbers ROADMAP
# asks every PR to state: non-test .go files outside benchmark/ on the
# first line, *_test.go on the second. Stage new files first (git add -A)
# or they are not seen.
BASE ?= HEAD
loc-delta:
	@git diff --numstat $(BASE) -- '*.go' ':(exclude)*_test.go' ':(exclude)benchmark' | \
		awk '{a += $$1; d += $$2} END {printf "non-test .go lines vs $(BASE): +%d -%d (net %+d)\n", a, d, a - d}'
	@git diff --numstat $(BASE) -- '*_test.go' ':(exclude)benchmark' | \
		awk '{a += $$1; d += $$2} END {printf "*_test.go lines vs $(BASE): +%d -%d (net %+d)\n", a, d, a - d}'

# The concurrency-heavy packages get a dedicated race-detector pass: the
# striped-lock LAKE store, the partitioned STREAM broker, the reader every
# consumer drains it through (on both planes, under fetch faults), the
# pipeline that batches into both, the parallel read surfaces (log search
# fan-out, columnar row-group decode and the schema frame primitives it
# gathers and appends with on its workers), the resilience substrate
# (retry/breaker/supervisor, fault injector, streaming jobs), the
# tier-federation path (object store gets under offload, glacier recall),
# the serving layer (gateway token buckets + priority admission,
# httpapi handlers + prepared-query registry), and the continuous-query
# engine (concurrent Apply/Read/Subscribe/checkpoint under a live pump),
# the replicated cluster (quorum publish with its concurrent flush wave
# and ascending multi-partition locking, failover, scatter-gather),
# the per-node WAL (concurrent appends/syncs against replay and close),
# and the telemetry generator (one Generator emitting on many goroutines).
race:
	$(GO) test -race ./internal/telemetry ./internal/schema ./internal/stream ./internal/plane ./internal/tsdb ./internal/core ./internal/logsearch ./internal/columnar ./internal/faults ./internal/resilience ./internal/sproc ./internal/obs ./internal/objstore ./internal/archive ./internal/gateway ./internal/httpapi ./internal/cq ./internal/cluster ./internal/wal

# Chaos pass: the full pipeline under deterministic fault injection with
# the race detector on. ODA_CHAOS_SEED pins the injection schedule so a
# failure replays exactly; change it to explore other schedules.
ODA_CHAOS_SEED ?= 20240601
chaos:
	ODA_CHAOS_SEED=$(ODA_CHAOS_SEED) $(GO) test -race -count=1 -run 'Chaos' ./internal/core -v

# Cluster chaos pass: the cluster simulator and its literal schedules —
# seeded schedules of publishes from two producers (each retrying its
# Failed), kills and restarts with and without a WAL, directed link cuts
# and heals, WAL crash points at append/fsync, replicate crash points,
# Repair, inserts, random queries, plane.Reader polls, joins and drains,
# each step checked against the reference model (every read
# byte-identical, every committed record held once, a watermark dropping
# only by the counted truncation), the WAL crash-point sweep (n2 crashed
# at every append and every fsync of one schedule, one run per log and
# count) — plus the mechanism tests: the
# flush-wave faults (one follower / leader / stripe log failing mid-wave;
# a replica killed after its flush still acks), a lock-order stress with
# a deadline, and CQ-pump failover resume. All under the race detector.
# ODA_CHAOS_SEED pins everything: a seed draws the same schedule and
# observes the same steps every run, and `make chaos-cluster
# ODA_CHAOS_SEED=<seed>` replays that one simulator seed and prints its
# schedule — shrunk, one op a line, when it fails. WAL crash points are
# keyed by (node, log, count), so although a batch flushes every log it
# touched in one concurrent wave, the k-th wal.fsync of a log lands on
# the same call whatever order the wave's goroutines run in; -count=2
# runs every scenario twice all the same.
chaos-cluster:
	ODA_CHAOS_SEED=$(ODA_CHAOS_SEED) $(GO) test -race -count=2 -run 'ChaosCluster' ./internal/cluster -v

# Parallel ingest benchmarks (1/4/16 goroutines x batch 1/64/1024).
bench:
	$(GO) test -run xxx -bench '(TSDBInsertParallel|BrokerPublishBatch)' -cpu 16 -benchtime 300000x .

# Query-engine grid (1/4/16 queriers x cold/warm cache x selectivity)
# plus the serial baseline; rows land in BENCH_query.json.
bench-query:
	rm -f $(CURDIR)/BENCH_query.json
	ODA_BENCH_JSON=$(CURDIR)/BENCH_query.json $(GO) test -run xxx -bench 'TSDBQueryParallel' -cpu 16 -benchtime 30x .

# Observability-overhead grid: the batched ingest hot path with and
# without a live metrics registry attached; rows land in BENCH_obs.json.
# The acceptance bar is <3% ns/op regression at every batch size.
bench-obs:
	rm -f $(CURDIR)/BENCH_obs.json
	ODA_BENCH_JSON=$(CURDIR)/BENCH_obs.json $(GO) test -run xxx -bench 'ObsOverheadInsert' -cpu 1 -benchtime 16000000x .

# Tier-federation grid (1/4/16 queriers x 0/50/90% offload x
# selectivity) plus the prune-vs-full-scan speedup pair at 90% offload;
# rows land in BENCH_federation.json.
bench-federate:
	rm -f $(CURDIR)/BENCH_federation.json
	ODA_BENCH_JSON=$(CURDIR)/BENCH_federation.json $(GO) test -run xxx -bench 'TSDBFederate' -cpu 16 -benchtime 10x .

# Multi-tenant serving-gateway scenarios (>= 10k simulated concurrent
# clients each): uniform interactive fleet, mixed-priority contention,
# open-loop surge (shed demo), and quota noisy-neighbor isolation; rows
# with p50/p95/p99 + 429/503 rates land in BENCH_serve.json.
bench-serve:
	rm -f $(CURDIR)/BENCH_serve.json
	ODA_BENCH_JSON=$(CURDIR)/BENCH_serve.json $(GO) test -run xxx -bench 'GatewayServe' -benchtime 1x -timeout 600s .

# Continuous-query serving path: view read at the current generation
# (the dashboard-refresh hot path) vs a full window re-fold vs the
# equivalent cold batch scan, plus the publish-throughput overhead pair
# with and without a pump attached; rows land in BENCH_cq.json. The
# acceptance bars are speedup_vs_cold >= 100x (on the cold-batch row: hot
# read vs cold scan) and overhead_pct <= 10. The fold row carries its own
# speedup_vs_cold (cold scan / re-fold) — reported, not a bar.
# The publish pair runs in its own process so the read fixtures'
# half-million resident cells don't distort its GC behaviour; the rows
# merge into one file.
bench-cq:
	rm -f $(CURDIR)/BENCH_cq.json
	ODA_BENCH_JSON=$(CURDIR)/BENCH_cq.json $(GO) test -run xxx -bench 'CQServe/read' -benchtime 1s -timeout 600s .
	ODA_BENCH_JSON=$(CURDIR)/BENCH_cq.json $(GO) test -run xxx -bench 'CQServe/publish' -benchtime 2000000x -timeout 600s .

# Cluster deployment grid: replicated publish throughput at
# nodes/rf = 1/1, 3/1, 3/2 (the RF=2 column prices the follower-ack
# quorum wait), kill/restart failover cycles measuring
# time-to-first-committed-publish and time-to-health-ok, and the warm
# node recovery pair — peer resync vs WAL disk replay under an identical
# modeled per-hop transport latency; rows land in BENCH_cluster.json.
bench-cluster:
	rm -f $(CURDIR)/BENCH_cluster.json
	ODA_BENCH_JSON=$(CURDIR)/BENCH_cluster.json $(GO) test -run xxx -bench 'ClusterPublish' -benchtime 100000x -timeout 600s .
	ODA_BENCH_JSON=$(CURDIR)/BENCH_cluster.json $(GO) test -run xxx -bench 'ClusterFailover' -benchtime 20x -timeout 600s .
	ODA_BENCH_JSON=$(CURDIR)/BENCH_cluster.json $(GO) test -run xxx -bench 'ClusterRecovery' -benchtime 20x -timeout 600s .

# Fuzz smoke: 30 seconds per fuzz target on top of the committed corpora
# (testdata/fuzz). Decoders for untrusted bytes must error, never panic.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzDecodeRow -fuzztime 30s ./internal/schema
	$(GO) test -run xxx -fuzz FuzzFileReader -fuzztime 30s ./internal/columnar
	$(GO) test -run xxx -fuzz FuzzColumnarExt -fuzztime 30s ./internal/columnar
	$(GO) test -run xxx -fuzz FuzzWALReplay -fuzztime 30s ./internal/wal

# verify rewrites no committed file: the bench-* targets that regenerate
# BENCH_*.json with this machine's numbers are run by hand, so a green
# verify leaves `git status` clean.
verify: vet build test bench-smoke race chaos chaos-cluster fuzz-smoke

clean:
	$(GO) clean ./...
