GO ?= go

.PHONY: all build vet test bench-smoke loc-delta one-reader one-read-path one-cell-format one-grouping one-log race chaos chaos-cluster bench bench-query bench-obs bench-federate bench-serve bench-cq bench-cluster fuzz-smoke verify clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The repo's benchmark (benchmark/, see BENCHMARK.json) is its own Go
# module, so the root build, vet and test never compile it. This target
# does: an internal/ signature change that breaks benchmark/sut.go fails
# here instead of in the driver's run. The cold-scan and OCF-write
# microbenchmarks, the partition log's append + fetch, the cell-table
# growth one, the grouped cold fold, the replicated ingest loop and the
# Silver job's windowed fold + SQL query run once each so they cannot rot
# either.
bench-smoke:
	(cd benchmark && $(GO) vet ./... && $(GO) test ./...)
	$(GO) test -bench 'PartitionAppendFetch' -benchtime 1x -run xxx ./internal/stream
	$(GO) test -bench 'ScanColumnsCold|WriteTelemetry' -benchtime 1x -run xxx ./internal/columnar
	$(GO) test -bench 'CellTableGrow|ColdFoldGrouped' -benchtime 1x -run xxx ./internal/tsdb
	$(GO) test -bench 'ClusterIngestBatch' -benchtime 1x -run xxx ./internal/cluster
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

# One stream reader: every consumer of the STREAM tier reads through
# plane.Reader. A non-test .go file outside the planes themselves
# (internal/plane, internal/stream, internal/cluster) and the benchmark
# module that fetches from a topic by hand is a second reader loop with
# its own trimmed / in-future / transient policy — fail the build, not a
# review.
one-reader:
	@if grep -rnE 'FetchNoWait\(|Broker\.Fetch\(' --include='*.go' --exclude='*_test.go' \
		--exclude-dir=benchmark --exclude-dir=plane --exclude-dir=stream --exclude-dir=cluster . ; then \
		echo "one-reader: read STREAM topics through plane.Reader, not a hand-rolled fetch loop"; exit 1; fi

# One LAKE read path: every HTTP read route answers through serveQuery,
# the one place internal/httpapi calls the backend's engine (so shedding,
# the cost headers and with them the gateway's scan debit reach a route by
# construction), and top-N is a query shape (tsdb.TopN / TopNOf), not a
# method some type answers beside RunWithStats.
one-read-path:
	@n=$$(grep -rn 'backend\.RunWithStats(' --include='*.go' --exclude='*_test.go' internal/httpapi | wc -l); \
		if [ $$n -ne 1 ]; then \
		grep -rn 'backend\.RunWithStats(' --include='*.go' --exclude='*_test.go' internal/httpapi; \
		echo "one-read-path: internal/httpapi has $$n backend.RunWithStats( call sites, want 1 (serveQuery)"; exit 1; fi
	@if grep -rnE '^func \([^)]*\) TopN\(' --include='*.go' --exclude='*_test.go' . ; then \
		echo "one-read-path: top-N is tsdb.TopN over RunWithStats, not a method"; exit 1; fi

# One serialized form for rollup cells: ColdSchema, written by the one
# builder in internal/tsdb/tier.go (Offload and ExportStripes both feed
# it) and read back through coldColumns (the cold fold and ImportStripes).
# The pre-federation pair — RollupSchema, DB.Export, DB.ImportRollups —
# stays deleted, and nobody else assembles a ColdSchema frame by hand.
one-cell-format:
	@if grep -rnE 'RollupSchema|ImportRollups|^func \(db \*DB\) Export\(' --include='*.go' --exclude='*_test.go' . ; then \
		echo "one-cell-format: rollup cells serialize as ColdSchema (ExportStripes / ImportStripes / Offload)"; exit 1; fi
	@if grep -rnF 'schema.FrameOfColumns(ColdSchema' --include='*.go' --exclude='*_test.go' . | grep -v '^\./internal/tsdb/tier\.go:' ; then \
		echo "one-cell-format: build ColdSchema frames with tsdb's cellColumns, not by hand"; exit 1; fi

# One grouping loop in the stream processor: GROUP BY, PIVOT and a job's
# windows find a row's group through sproc's groupTable (relational.go),
# and the SQL executor orders rows in one place (a permutation sort, then
# Frame.Gather). A second group struct, the job's old winGroup, or a second
# sort call site in sql.go (Frame.SortBy for ascending beside a row-boxing
# sort for DESC) is a copy of the loop coming back.
one-grouping:
	@if grep -n 'winGroup' internal/sproc/*.go | grep -v '_test\.go:' ; then \
		echo "one-grouping: a job's windows are groupTables, not a winGroup map"; exit 1; fi
	@n=$$(cat $$(ls internal/sproc/*.go | grep -v '_test\.go$$') | grep -c 'type group struct'); \
		if [ $$n -ne 1 ]; then \
		echo "one-grouping: non-test internal/sproc declares $$n 'type group struct', want 1 (relational.go)"; exit 1; fi
	@n=$$(grep -cE 'SortBy\(|sortByTerms\(|Sort(Stable)?Func\(|sort\.[A-Z][A-Za-z]*\(' internal/sproc/sql.go); \
		if [ $$n -ne 1 ]; then \
		grep -nE 'SortBy\(|sortByTerms\(|Sort(Stable)?Func\(|sort\.[A-Z][A-Za-z]*\(' internal/sproc/sql.go; \
		echo "one-grouping: sql.go sorts through $$n call sites, want 1 (ORDER BY: a permutation sort, then Gather)"; exit 1; fi

# One log: a STREAM partition is append-only, trimmed by bytes, and
# written a batch at a time — one chunk per appended batch, one trim rule,
# PublishBatch / PublishBatchTo as the publish paths on either plane (a
# single record is a batch of one), records stamped with the wall clock.
# A compacted topic, age retention, a swappable broker clock or a
# single-record publish method coming back fails the build.
one-log:
	@if grep -rnE '^[[:space:]]+(Compacted|CompactEvery|RetentionAge)([[:space:],]|$$)' --include='*.go' --exclude='*_test.go' internal/stream ; then \
		echo "one-log: stream.TopicConfig is {Partitions, RetentionBytes}"; exit 1; fi
	@if grep -rnE '^func \([a-z]+ \*Broker\) (Publish|PublishTo|SetClock)\(' --include='*.go' --exclude='*_test.go' internal/stream ; then \
		echo "one-log: publish through PublishBatch / PublishBatchTo (a record is a batch of one); records are stamped time.Now()"; exit 1; fi
	@if grep -rnE '^func \([a-z]+ \*Cluster\) Publish\(' --include='*.go' --exclude='*_test.go' internal/cluster ; then \
		echo "one-log: the cluster publishes through PublishBatch"; exit 1; fi

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
# and ascending multi-partition locking, failover, scatter-gather), and
# the per-node WAL (concurrent appends/syncs against replay and close).
race:
	$(GO) test -race ./internal/schema ./internal/stream ./internal/plane ./internal/tsdb ./internal/core ./internal/logsearch ./internal/columnar ./internal/faults ./internal/resilience ./internal/sproc ./internal/obs ./internal/objstore ./internal/archive ./internal/gateway ./internal/httpapi ./internal/cq ./internal/cluster ./internal/wal

# Chaos pass: the full pipeline under deterministic fault injection with
# the race detector on. ODA_CHAOS_SEED pins the injection schedule so a
# failure replays exactly; change it to explore other schedules.
ODA_CHAOS_SEED ?= 20240601
chaos:
	ODA_CHAOS_SEED=$(ODA_CHAOS_SEED) $(GO) test -race -count=1 -run 'Chaos' ./internal/core -v

# Cluster chaos pass: kill-a-node, kill-the-leader-mid-publish,
# asymmetric link partition, join/leave rebalance, CQ-pump failover
# resume, the WAL crash-point sweep (kill a node at every WAL
# append/fsync boundary, restart it from disk, require a byte-identical
# committed prefix), the flush-wave fault cases (one follower / leader /
# stripe log failing mid-wave; a replica killed after its flush still
# acks), a lock-order stress with a deadline, and restart-from-disk
# under a partial transport partition — all under the race detector
# with a pinned fault schedule. Each scenario asserts exactly-once
# committed data and degraded-not-down serving at every step.
# ODA_CHAOS_SEED drives both the fault schedules and the crash-point
# workloads: a failure message names the seed, and
# `make chaos-cluster ODA_CHAOS_SEED=<seed>` replays that run's publish
# contents, transport-fault schedule and per-node boundary COUNTS. What a
# seed does not pin: a batch flushes every log it touched in one
# concurrent wave, so the LOG the k-th wal.fsync on a node lands on
# depends on the scheduler — the sweep's failure messages name the op
# and the log the injected fault actually hit, and -count=2 runs every
# scenario twice so an assertion that only holds for one order cannot
# hide.
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
verify: vet build one-reader one-read-path one-cell-format one-grouping one-log test bench-smoke race chaos chaos-cluster fuzz-smoke

clean:
	$(GO) clean ./...
