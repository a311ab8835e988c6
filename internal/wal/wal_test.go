package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	var b []byte
	var err error
	for _, e := range entries {
		if b, err = AppendFrame(b, e); err != nil {
			t.Fatal(err)
		}
	}
	return b
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
	segs, err := listSegs(filepath.Join(dir, "p0"))
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
	if err := l.Append(want...); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	seg := filepath.Join(dir, "p0", segName(0))
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
		if err := os.Remove(filepath.Join(dir, "p0", manifestName)); err != nil {
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
	segs, err := listSegs(filepath.Join(dir, "p0"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("need ≥3 segments (err %v, got %d)", err, len(segs))
	}
	mid := filepath.Join(dir, "p0", segs[1])
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
	left, err := listSegs(filepath.Join(dir, "p0"))
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

// TestWALHas: Has names the logs on disk — one Log opened, in this
// process or an earlier one — and creates none itself.
func TestWALHas(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if w.Has("t/x/0") || w.Has("t/x/0") {
		t.Fatal("Has reports a log nothing opened, or created it on the first ask")
	}
	if _, err := w.Log("t/x/0"); err != nil {
		t.Fatal(err)
	}
	w.Abandon()
	w2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !w2.Has("t/x/0") {
		t.Fatal("a reopened WAL does not have the log an earlier one opened")
	}
	if err := w2.Remove("t/x/0"); err != nil || w2.Has("t/x/0") {
		t.Fatalf("a removed log is still there (%v)", err)
	}
}
