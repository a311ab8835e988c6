// Package plane declares the data plane of Fig 5 once: the one STREAM
// and the one LAKE every pipeline and every data application shares. A
// facility runs on exactly one plane — its own Broker + Lake, or a
// replicated cluster — and core's ingest and replay, the CQ pump, the
// HTTP portal and the dashboards depend only on these two interfaces.
// Both implementations satisfy them with the methods they already had;
// there is no adapter type, so "cluster ≡ single node" is one code path
// whose degenerate case is the single node.
//
// Beside the two declarations the package holds the logic that is written
// against them rather than behind them. Reader is the cursor every STREAM
// consumer reads through. It delivers each record of a topic's committed
// prefix (below EndOffset — the quorum high watermark on a cluster)
// exactly once and in offset order per partition, visits partitions in
// one fixed order, never moves a cursor past a record its callback did
// not accept, resumes at the oldest retained record when retention
// overtakes it, and lets one failing partition neither block the others
// nor lose its place. Between passes it parks on Stream.Ready until a
// commit lands behind one of its cursors: nothing in the package runs on
// a clock. Loop is the one checkpointed consumer built on it: it decodes
// each page, quarantines poison records to "<topic>.dlq" (Decoder, also
// used by the bronze replay), retries transient faults under one policy,
// writes the checkpoint and parks, while an Operator — the CQ view
// engine, a streaming job — applies the rows and serializes its state.
// Like the Loop that holds one, a Reader belongs to a single goroutine.
package plane

import (
	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
)

// Stream is the STREAM tier: partitioned, offset-addressed topics.
type Stream interface {
	// EnsureTopic creates a topic when absent; an existing topic is a
	// no-op.
	EnsureTopic(name string, cfg stream.TopicConfig) error
	// PublishBatch appends a batch, routing each message by key
	// (stream.KeyPartition). A failure affecting only some partitions is
	// a *stream.PartialPublishError: its Failed messages are not in the
	// log and never will be unless published again, so retrying exactly
	// Failed duplicates nothing — keyed or keyless, with any number of
	// publishers. A publish keeps no reference to a message's bytes after
	// it returns, except a PartialPublishError's Failed remainder, which
	// stays valid until the caller retries or drops it.
	PublishBatch(topic string, msgs []stream.Message) (int, error)
	Partitions(topic string) (int, error)
	// AppendRecords appends up to max records at offset to dst without
	// blocking and returns the extended slice: below the retention
	// horizon is stream.ErrOffsetTrimmed, beyond EndOffset is
	// stream.ErrOffsetInFuture. Keys and values alias the log's immutable
	// storage, so a reader reuses one page of record headers.
	AppendRecords(dst []stream.Record, topic string, partition int, offset int64, max int) ([]stream.Record, error)
	// EndOffset is the end of the prefix readers may consume — on a
	// cluster the quorum-committed high watermark, so a reader only ever
	// sees records that survive any single-node failover.
	EndOffset(topic string, partition int) (int64, error)
	// Ready returns a channel that is closed once EndOffset passes off,
	// or once the topic is deleted or the plane closed (the next fetch
	// says which); it comes back closed when that already holds. It is
	// the one wait: driven by the commit, so a staged, unacked suffix
	// wakes no one. A channel rather than a blocking call, so a reader
	// selects over all of its partitions and its ctx at once.
	Ready(topic string, partition int, off int64) (<-chan struct{}, error)
	OldestOffset(topic string, partition int) (int64, error)
	Topics() []string
}

// Lake is the LAKE tier: the rollup store behind every query route. The
// two implementations answer the same query with the same bytes.
type Lake interface {
	InsertBatch(obs []schema.Observation) error
	RunWithStats(q tsdb.Query) (*schema.Frame, tsdb.QueryStats, error)
}

// The single-node plane. *cluster.Cluster asserts both interfaces next to
// its own declaration (cluster tests import cq, which imports this
// package, so the assertion cannot live here).
var (
	_ Stream = (*stream.Broker)(nil)
	_ Lake   = (*tsdb.DB)(nil)
)
