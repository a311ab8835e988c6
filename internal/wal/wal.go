// Package wal implements one segmented write-ahead log per node for the
// replicated cluster: length-prefixed CRC32-C framed records, segment
// rotation under a durable atomicfile manifest, and torn-tail
// truncation on open. A NodeWAL is one node's log directory and its one
// log; each named stream inside it (a topic partition, a lake stripe) is
// a tag on the frames, and a Log is a handle that appends, syncs and
// replays one stream.
//
// Durability contract: Append stages frames in memory and Sync makes
// them durable — callers ack replication only after Sync. A crash (or
// NodeWAL.Abandon, which simulates one) loses buffered frames but never
// corrupts the flushed prefix; open truncates at the first torn frame.
// The log is one ordered file, so a frame is durable only once every
// frame staged before it is: a stream's reset (Remove) is durable before
// anything appended after it.
//
// Group commit: Sync writes and fsyncs everything staged so far, on
// every stream, under the log's sync lock. A Sync whose frames a
// concurrent Sync already flushed returns without an fsync of its own,
// and Append takes only the append lock, so it never waits behind an
// fsync in flight.
//
// What an ack rides on: the cluster stages a whole batch with Append on
// every replica stream it touches, then calls Sync once on every node
// log those streams live in, concurrently (one flush wave per batch),
// and counts a replica's ack only once its node's Sync has returned nil.
// Commit barriers are appended after the wave without a Sync of their
// own and become durable with the next Sync of their node's log.
//
// Fault injection: the NodeWAL's faults.Hook fires wal.open (a stream
// handle's first use), wal.append (with the stream), wal.fsync (under
// the sync lock, once per real fsync, with NodeLog) and wal.replay
// (with the stream, or NodeLog for the whole log) before the guarded
// step mutates anything.
package wal

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"odakit/internal/atomicfile"
	"odakit/internal/faults"
)

// Operation names the fault hook fires with, as faults names them.
const (
	OpOpen   = faults.OpWALOpen
	OpAppend = faults.OpWALAppend
	OpFsync  = faults.OpWALFsync
	OpReplay = faults.OpWALReplay
)

// NodeLog is the fault target of the operations on the whole node log:
// every fsync, and a replay of every stream.
const NodeLog = "node"

// ErrClosed reports an operation against a closed (or abandoned) log —
// the write paths treat it as the node crash it represents.
var ErrClosed = errors.New("wal: closed")

// DefaultSegmentBytes is the rotation threshold when Config leaves it
// zero.
const DefaultSegmentBytes = 4 << 20

// Config shapes one node's WAL.
type Config struct {
	// Dir is the node's log directory (required).
	Dir string
	// SegmentBytes rotates the active segment once its flushed size
	// reaches this many bytes (DefaultSegmentBytes when zero).
	SegmentBytes int64
}

// Stats aggregates a NodeWAL's counters.
type Stats struct {
	Appends         int64 // entries staged
	AppendedBytes   int64 // frame bytes flushed to segments
	Fsyncs          int64 // fsyncs of the node log (a Sync a concurrent flush covered makes none)
	Rotations       int64 // segments sealed
	ReplayedEntries int64 // entries streamed by Replay
	ReplayedBytes   int64 // valid frame bytes read by Replay
	TruncatedTails  int64 // torn-tail truncation events on open
	TruncatedBytes  int64 // bytes discarded by truncation
}

// Add accumulates o into s (metric roll-ups across nodes).
func (s *Stats) Add(o Stats) {
	s.Appends += o.Appends
	s.AppendedBytes += o.AppendedBytes
	s.Fsyncs += o.Fsyncs
	s.Rotations += o.Rotations
	s.ReplayedEntries += o.ReplayedEntries
	s.ReplayedBytes += o.ReplayedBytes
	s.TruncatedTails += o.TruncatedTails
	s.TruncatedBytes += o.TruncatedBytes
}

// NodeWAL is one node's log. Positions in it are byte offsets from the
// start of its first segment. Close/Abandon invalidates every handle.
// Safe for concurrent use.
type NodeWAL struct {
	cfg Config

	// mu is the append lock. It is never held across a write or an
	// fsync.
	mu      sync.Mutex
	closed  bool
	streams map[string]*Log
	buf     []byte           // staged frames, not yet written (lost on crash)
	staged  int64            // the position buf ends at
	resets  map[string]int64 // each stream's last reset, by position

	// syncMu is the sync lock: one flush at a time writes, fsyncs and
	// rotates. Lock order: syncMu, then mu.
	syncMu  sync.Mutex
	durable int64             // the position the last fsync covered
	spare   []byte            // the last flush's buffer, the next one to stage into
	segs    []manifestSegment // segs[len-1] is the active (unsealed) tail
	f       *os.File          // active segment, append-only
	size    int64             // bytes written to the active segment
	err     error             // a failed write or fsync: nothing later can be promised

	faults faults.Hook

	appends, appendedBytes, fsyncs, rotations atomic.Int64
	replayedEntries, replayedBytes            atomic.Int64
	truncatedTails, truncatedBytes            atomic.Int64
}

// Open opens (creating if needed) a node's log directory and recovers
// its log: sealed segments checked against the manifest, the torn tail
// cut. A directory that holds the per-stream directories of the older
// one-log-per-stream layout is refused.
func Open(cfg Config) (*NodeWAL, error) {
	if cfg.Dir == "" {
		return nil, errors.New("wal: Config.Dir required")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	_, _ = atomicfile.CleanTemps(cfg.Dir)
	w := &NodeWAL{cfg: cfg, streams: make(map[string]*Log), resets: make(map[string]int64)}
	if err := w.recover(); err != nil {
		return nil, err
	}
	return w, nil
}

// Dir returns the WAL's directory.
func (w *NodeWAL) Dir() string { return w.cfg.Dir }

// SetFaultHook installs (or, with nil, removes) the fault-injection hook.
func (w *NodeWAL) SetFaultHook(h func(op, target string) error) { w.faults.SetFaultHook(h) }

func validName(name string) error {
	if name == "" || strings.HasPrefix(name, "/") || strings.Contains(name, "..") {
		return fmt.Errorf("wal: invalid stream name %q", name)
	}
	return nil
}

// Log is one stream of a NodeWAL (a topic partition's records, or a
// lake stripe's insert history): Append tags its entries with the
// stream, Sync makes the whole node log durable, Replay reads the
// stream back. Safe for concurrent use.
type Log struct {
	w    *NodeWAL
	name string
}

// Log returns the named stream's handle. Names are slash-separated,
// like the cluster's "t/<topic>/<partition>" and "lake/<stripe>".
func (w *NodeWAL) Log(name string) (*Log, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, ErrClosed
	}
	if l, ok := w.streams[name]; ok {
		return l, nil
	}
	if err := w.faults.Fire(faults.OpWALOpen, name); err != nil {
		return nil, err
	}
	l := &Log{w: w, name: name}
	w.streams[name] = l
	return l, nil
}

// Append stages entries on the stream as one frame. They become durable
// only at the next Sync; callers must not ack until Sync returns.
func (l *Log) Append(entries ...Entry) error {
	w := l.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if err := w.faults.Fire(faults.OpWALAppend, l.name); err != nil {
		return err
	}
	if len(entries) == 0 {
		return nil
	}
	b, err := appendBatch(w.buf, l.name, entries, MaxFrame)
	if err != nil {
		return err
	}
	w.buf, w.staged = b, w.staged+int64(len(b)-len(w.buf))
	w.appends.Add(int64(len(entries)))
	return nil
}

// Sync makes the node log durable through everything staged on any
// stream; see NodeWAL.Sync.
func (l *Log) Sync() error { return l.w.Sync() }

// Replay streams the stream's entries since its last reset, in append
// order, through fn. It reads from disk, not the write buffer: replay
// sees exactly what a restarted process would, except that a reset
// takes effect at once. A non-nil error from fn aborts the replay.
func (l *Log) Replay(fn func(Entry) error) (int, error) {
	return l.w.replay(l.name, func(_ string, e Entry) error { return fn(e) })
}

// Remove resets a stream: it stages a reset frame, and Replay (here,
// and after a restart once the frame is durable) skips every entry the
// stream held before it. Used when an out-of-band copy (a wholesale
// stripe resync) makes the stream's history no longer describe the
// state it was a log of.
func (w *NodeWAL) Remove(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	b, err := AppendFrame(w.buf, Frame{Stream: name, Reset: true})
	if err != nil {
		return err
	}
	w.resets[name] = w.staged
	w.buf, w.staged = b, w.staged+int64(len(b)-len(w.buf))
	return nil
}

// Sync is the durability barrier acks ride on: it writes every frame
// staged so far, on any stream, and fsyncs the active segment. A Sync
// whose frames a concurrent one already flushed returns without an
// fsync of its own (group commit). Segment rotation happens here, so a
// sealed segment is always fully durable.
func (w *NodeWAL) Sync() error {
	w.mu.Lock()
	want, closed := w.staged, w.closed
	w.mu.Unlock()
	if closed {
		return ErrClosed
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.durable >= want {
		return nil
	}
	if err := w.faults.Fire(faults.OpWALFsync, NodeLog); err != nil {
		return err
	}
	return w.flushLocked()
}

// flushLocked writes what is staged and fsyncs it. syncMu held; the
// append lock is held only to take the buffer.
func (w *NodeWAL) flushLocked() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	buf, end := w.buf, w.staged
	w.buf, w.spare = w.spare[:0], nil
	w.mu.Unlock()
	n, err := w.f.Write(buf)
	w.size += int64(n)
	w.appendedBytes.Add(int64(n))
	if err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		w.err = fmt.Errorf("wal: %s: %w", w.cfg.Dir, err)
		return w.err
	}
	w.spare, w.durable = buf[:0], end
	w.fsyncs.Add(1)
	if w.size >= w.cfg.SegmentBytes {
		return w.rotateLocked()
	}
	return nil
}

// Close cleanly shuts the WAL down: what is staged is flushed and
// fsynced before the segment closes. Further operations return
// ErrClosed.
func (w *NodeWAL) Close() error { return w.shutdown(true) }

// Abandon closes the WAL the way a crash would: staged, never-synced
// frames are dropped on the floor and the segment closes without a
// final flush. Restart uses it as the process-death boundary before
// reopening the directory from disk.
func (w *NodeWAL) Abandon() { _ = w.shutdown(false) }

func (w *NodeWAL) shutdown(flush bool) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	closed, pending := w.closed, w.staged > w.durable
	w.mu.Unlock()
	if closed {
		return nil
	}
	var err error
	if flush && pending {
		if err = w.err; err == nil {
			err = w.flushLocked()
		}
	}
	w.mu.Lock()
	w.closed, w.buf = true, nil
	w.mu.Unlock()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats snapshots the WAL's counters.
func (w *NodeWAL) Stats() Stats {
	return Stats{
		Appends:         w.appends.Load(),
		AppendedBytes:   w.appendedBytes.Load(),
		Fsyncs:          w.fsyncs.Load(),
		Rotations:       w.rotations.Load(),
		ReplayedEntries: w.replayedEntries.Load(),
		ReplayedBytes:   w.replayedBytes.Load(),
		TruncatedTails:  w.truncatedTails.Load(),
		TruncatedBytes:  w.truncatedBytes.Load(),
	}
}
