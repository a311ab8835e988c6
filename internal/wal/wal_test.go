package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"odakit/internal/schema"
)

func testEntries(n int) []Entry {
	base := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			out = append(out, Entry{
				Kind: KindRecord, Offset: int64(i), Ts: base.Add(time.Duration(i) * time.Second).UnixNano(),
				Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte(fmt.Sprintf("v%d-payload", i)),
			})
		case 1:
			out = append(out, Entry{Kind: KindCommit, HW: int64(i), Epoch: int64(i / 3)})
		default:
			out = append(out, Entry{Kind: KindInsert, Seq: int64(i), Obs: []schema.Observation{{
				Ts: base.Add(time.Duration(i) * time.Minute), System: "sys0", Source: "src1",
				Component: fmt.Sprintf("node%05d", i), Metric: "node_power_w", Value: float64(i) / 3.0,
			}}})
		}
	}
	return out
}

func encodeAll(t *testing.T, entries []Entry) []byte {
	t.Helper()
	b, err := AppendFrame(nil, Frame{Stream: "s", Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func openWAL(t *testing.T, cfg Config) *NodeWAL {
	t.Helper()
	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func stream(t *testing.T, w *NodeWAL, name string) *Log {
	t.Helper()
	l, err := w.Log(name)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func replayAll(t *testing.T, l *Log) []Entry {
	t.Helper()
	var got []Entry
	if _, err := l.Replay(func(e Entry) error { got = append(got, e); return nil }); err != nil {
		t.Fatal(err)
	}
	return got
}

// requireSame compares entry slices through the canonical encoding —
// byte equality is the contract replay promises.
func requireSame(t *testing.T, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(want))
	}
	gb, wb := encodeAll(t, got), encodeAll(t, want)
	if !bytes.Equal(gb, wb) {
		t.Fatalf("replayed entries re-encode to %d bytes differing from the %d written", len(gb), len(wb))
	}
}

func TestWALAppendSyncReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l, err := w.Log("t/telemetry/0")
	if err != nil {
		t.Fatal(err)
	}
	want := testEntries(50)
	if err := l.Append(want...); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	requireSame(t, replayAll(t, l), want)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk: same entries, no truncation.
	w2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := w2.Log("t/telemetry/0")
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, replayAll(t, l2), want)
	if s := w2.Stats(); s.TruncatedTails != 0 || s.TruncatedBytes != 0 {
		t.Fatalf("clean reopen truncated: %+v", s)
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	l, err := w.Log("p0")
	if err != nil {
		t.Fatal(err)
	}
	want := testEntries(120)
	for _, e := range want { // sync per entry so rotation triggers repeatedly
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if r := w.Stats().Rotations; r < 4 {
		t.Fatalf("expected several rotations, got %d", r)
	}
	segs, err := listSegs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 5 {
		t.Fatalf("expected ≥5 segment files, got %d", len(segs))
	}
	requireSame(t, replayAll(t, l), want)
	w.Close()

	w2, err := Open(Config{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := w2.Log("p0")
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, replayAll(t, l2), want)
}

func TestWALTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l, err := w.Log("p0")
	if err != nil {
		t.Fatal(err)
	}
	want := testEntries(20)
	for _, e := range want { // one frame each, so a torn tail loses one entry
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	seg := filepath.Join(dir, segName(0))
	for name, corrupt := range map[string]func([]byte) []byte{
		"garbage-appended": func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3) },
		"torn-mid-frame":   func(b []byte) []byte { return b[:len(b)-5] },
	} {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, corrupt(append([]byte(nil), data...)), 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		l2, err := w2.Log("p0")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := replayAll(t, l2)
		if name == "garbage-appended" {
			requireSame(t, got, want)
		} else if len(got) != len(want)-1 {
			t.Fatalf("%s: recovered %d entries, want %d", name, len(got), len(want)-1)
		}
		if w2.Stats().TruncatedTails != 1 {
			t.Fatalf("%s: stats %+v, want one truncation", name, w2.Stats())
		}
		// Recovery must leave a clean, appendable log.
		if err := l2.Append(Entry{Kind: KindCommit, HW: 99, Epoch: 1}); err != nil {
			t.Fatalf("%s: append after recovery: %v", name, err)
		}
		if err := l2.Sync(); err != nil {
			t.Fatalf("%s: sync after recovery: %v", name, err)
		}
		w2.Close()
		// Restore the original bytes for the next corruption flavor.
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALMidLogCorruptionDropsSuffix corrupts a sealed (non-final)
// segment: recovery must cut the log there and discard every later
// segment — a frame-aligned prefix is all that survives.
func TestWALMidLogCorruptionDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	l, err := w.Log("p0")
	if err != nil {
		t.Fatal(err)
	}
	want := testEntries(60)
	for _, e := range want {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, err := listSegs(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("need ≥3 segments (err %v, got %d)", err, len(segs))
	}
	mid := filepath.Join(dir, segs[1])
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(Config{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := w2.Log("p0")
	if err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l2)
	if len(got) == 0 || len(got) >= len(want) {
		t.Fatalf("recovered %d entries, want a proper prefix of %d", len(got), len(want))
	}
	requireSame(t, got, want[:len(got)])
	left, err := listSegs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 2 {
		t.Fatalf("later segments not dropped: %v", left)
	}
}

// TestWALCrashDropsUnsyncedBuffer pins the durability contract: entries
// appended but never synced are gone after an abandon (crash), while
// the synced prefix survives intact.
func TestWALCrashDropsUnsyncedBuffer(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l, err := w.Log("p0")
	if err != nil {
		t.Fatal(err)
	}
	want := testEntries(10)
	if err := l.Append(want...); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Entry{Kind: KindRecord, Offset: 999, Key: []byte("lost"), Value: []byte("lost")}); err != nil {
		t.Fatal(err)
	}
	w.Abandon() // crash: the buffered entry must not survive
	if err := l.Append(Entry{Kind: KindCommit}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after abandon: %v, want ErrClosed", err)
	}
	w2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := w2.Log("p0")
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, replayAll(t, l2), want)
}

// TestWALFaultHook exercises every injected boundary: a failed append
// stages nothing, a failed fsync leaves the flushed prefix untouched,
// and open/replay faults surface as errors.
func TestWALFaultHook(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l, err := w.Log("p0")
	if err != nil {
		t.Fatal(err)
	}
	want := testEntries(5)
	if err := l.Append(want...); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var failOp string
	w.SetFaultHook(func(op, target string) error {
		if op == failOp {
			return fmt.Errorf("%w: %s %s", boom, op, target)
		}
		return nil
	})
	failOp = OpAppend
	if err := l.Append(want[0]); !errors.Is(err, boom) {
		t.Fatalf("append fault: %v", err)
	}
	failOp = ""
	if err := l.Append(want[0]); err != nil { // staged, so the Sync has a flush to make
		t.Fatal(err)
	}
	failOp = OpFsync
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Fatalf("fsync fault: %v", err)
	}
	failOp = OpReplay
	if _, err := l.Replay(func(Entry) error { return nil }); !errors.Is(err, boom) {
		t.Fatalf("replay fault: %v", err)
	}
	failOp = OpOpen
	if _, err := w.Log("p1"); !errors.Is(err, boom) {
		t.Fatalf("open fault: %v", err)
	}
	failOp = ""
	// The failed boundaries mutated nothing durable: the log still
	// replays exactly the synced prefix.
	requireSame(t, replayAll(t, l), want)
}

func TestWALRejectsBadNames(t *testing.T) {
	w, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "/abs", "a/../../etc", ".."} {
		if _, err := w.Log(name); err == nil {
			t.Fatalf("name %q accepted", name)
		}
	}
}

// TestWALRemoveResetsStream: Remove hides a stream's history from its
// Replay at once, other streams keep theirs, and what the stream takes
// after the reset is its new history. On disk the reset is one more
// frame of the node log, so it is durable exactly when a later frame
// is: a crash before the next Sync brings the old history back, and
// with it nothing appended after the reset.
func TestWALRemoveResetsStream(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, Config{Dir: dir})
	a, b := stream(t, w, "lake/1"), stream(t, w, "lake/2")
	old, kept, fresh := testEntries(6), testEntries(4), testEntries(3)
	if err := a.Append(old...); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(kept...); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Remove("lake/1"); err != nil {
		t.Fatal(err)
	}
	requireSame(t, replayAll(t, a), nil)
	if err := a.Append(fresh...); err != nil {
		t.Fatal(err)
	}
	w.Abandon() // the reset and fresh were only staged
	w = openWAL(t, Config{Dir: dir})
	a, b = stream(t, w, "lake/1"), stream(t, w, "lake/2")
	requireSame(t, replayAll(t, a), old)
	requireSame(t, replayAll(t, b), kept)

	if err := w.Remove("lake/1"); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(fresh...); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Abandon()
	w = openWAL(t, Config{Dir: dir})
	requireSame(t, replayAll(t, stream(t, w, "lake/1")), fresh)
	requireSame(t, replayAll(t, stream(t, w, "lake/2")), kept)
	if ents, _ := os.ReadDir(dir); len(ents) != 2 {
		t.Fatalf("the node directory holds %d files, want one segment and the manifest", len(ents))
	}
}

// TestWALStreamsShareOneLog: streams interleave in one log. Each
// stream's Replay returns its own entries in append order, the node
// log's Replay returns every entry once, in log order, with its stream,
// and both survive a reopen across segment rotations.
func TestWALStreamsShareOneLog(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, Config{Dir: dir, SegmentBytes: 512})
	names := []string{"t/telemetry/0", "t/telemetry/1", "lake/0"}
	want := map[string][]Entry{}
	var order []string
	for i, e := range testEntries(90) {
		name := names[i%len(names)]
		if err := stream(t, w, name).Append(e); err != nil {
			t.Fatal(err)
		}
		want[name] = append(want[name], e)
		order = append(order, name)
		if i%7 == 0 {
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w = openWAL(t, Config{Dir: dir, SegmentBytes: 512})
	for _, name := range names {
		requireSame(t, replayAll(t, stream(t, w, name)), want[name])
	}
	var got []string
	if _, err := w.Replay(func(s string, _ Entry) error { got = append(got, s); return nil }); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, order) {
		t.Fatalf("the node log replays streams in the order %v, want %v", got, order)
	}
	if segs, _ := listSegs(dir); len(segs) < 3 {
		t.Fatalf("%d segments; the test wants rotations", len(segs))
	}
}

// TestWALGroupCommit: two goroutines append to different streams and
// Sync concurrently. The first Sync's fsync hook holds the sync lock
// until the second goroutine's Append has returned — an Append never
// waits behind an fsync in flight — so that flush carries both frames
// and the second Sync returns without an fsync of its own. Then many
// rounds of both: fewer fsyncs than Syncs, and after a crash a reopen
// replays every entry whose Sync returned.
func TestWALGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, Config{Dir: dir})
	a, b := stream(t, w, "t/telemetry/0"), stream(t, w, "lake/5")
	entered, appended := make(chan struct{}), make(chan struct{})
	var once sync.Once
	w.SetFaultHook(func(op, target string) error {
		if op != OpFsync {
			return nil
		}
		if target != NodeLog {
			t.Errorf("fsync fired on %q, want the node log", target)
		}
		once.Do(func() {
			close(entered)
			select {
			case <-appended:
			case <-time.After(10 * time.Second):
				t.Error("an Append waited behind the fsync in flight")
			}
		})
		return nil
	})
	e := testEntries(2)
	if err := a.Append(e[0]); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- a.Sync() }()
	<-entered
	if err := b.Append(e[1]); err != nil {
		t.Fatal(err)
	}
	close(appended)
	go func() { errs <- b.Sync() }()
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Stats().Fsyncs; got != 1 {
		t.Fatalf("two Syncs over one flush made %d fsyncs, want 1", got)
	}
	w.SetFaultHook(func(op, _ string) error {
		if op == OpFsync {
			time.Sleep(100 * time.Microsecond) // a device flush: Syncs pile up behind it
		}
		return nil
	})

	var mu sync.Mutex
	acked := map[string][]Entry{"t/telemetry/0": {e[0]}, "lake/5": {e[1]}}
	syncs := int64(2)
	var wg sync.WaitGroup
	for _, l := range []*Log{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, e := range testEntries(120) {
				if err := l.Append(e); err != nil {
					t.Error(err)
					return
				}
				if err := l.Sync(); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked[l.name] = append(acked[l.name], e)
				syncs++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if f := w.Stats().Fsyncs; f >= syncs {
		t.Fatalf("%d fsyncs for %d Syncs: no flush was shared", f, syncs)
	}
	w.Abandon()
	w = openWAL(t, Config{Dir: dir})
	for name, want := range acked {
		requireSame(t, replayAll(t, stream(t, w, name)), want)
	}
}

// TestWALRefusesOldLayout: a node directory written by the older
// one-directory-per-stream layout (testdata/oldlayout: t/telemetry/0
// and lake/3) is refused by name, and nothing in it is touched.
func TestWALRefusesOldLayout(t *testing.T) {
	src, dir := filepath.Join("testdata", "oldlayout"), filepath.Join(t.TempDir(), "n2")
	if err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Config{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "delete") {
		t.Fatalf("opening an old-layout directory: %v, want a refusal that names %s and says to delete it", err, dir)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(0))); !os.IsNotExist(err) {
		t.Fatalf("the refused open created a segment (%v)", err)
	}
	for _, seg := range []string{"t/telemetry/0/0000000000.seg", "lake/3/0000000000.seg"} {
		want, _ := os.ReadFile(filepath.Join(src, seg))
		if got, err := os.ReadFile(filepath.Join(dir, seg)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s changed under a refused open (%v)", seg, err)
		}
	}
}

// TestAppendBatchSplitsAtTheFrameLimit: an Append whose entries do not
// fit one frame becomes several frames of the stream, each within the
// limit and together the entries in order; an entry that alone exceeds
// the limit is refused and leaves the buffer as it was.
func TestAppendBatchSplitsAtTheFrameLimit(t *testing.T) {
	want := testEntries(40)
	b, err := appendBatch([]byte("staged"), "lake/1", want, 300)
	if err != nil {
		t.Fatal(err)
	}
	frames, n := DecodeFrames(b[len("staged"):])
	if n != len(b)-len("staged") || len(frames) < 4 {
		t.Fatalf("%d frames over %d of %d bytes, want several covering all", len(frames), n, len(b)-len("staged"))
	}
	var got []Entry
	for _, f := range frames {
		if p, err := AppendFrame(nil, f); err != nil || len(p)-frameHeader > 300 || f.Stream != "lake/1" {
			t.Fatalf("frame of %d bytes on %q (%v), want ≤ 300 on lake/1", len(p)-frameHeader, f.Stream, err)
		}
		got = append(got, f.Entries...)
	}
	requireSame(t, got, want)
	big := Entry{Kind: KindRecord, Value: make([]byte, 400)}
	if b, err := appendBatch([]byte("staged"), "lake/1", []Entry{want[0], big}, 300); err == nil || string(b) != "staged" {
		t.Fatalf("a 400-byte entry under a 300-byte limit: %v, buffer %q", err, b)
	}
}
