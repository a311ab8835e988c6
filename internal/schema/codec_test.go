package schema

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestCodecRoundTrip(t *testing.T) {
	rows := []Row{
		{Int(1), Str("a"), Float(2.5), Bool(true), Time(time.Unix(100, 5).UTC()), Null},
		{},
		{Null, Null},
		{Str(""), Str("unicode ✓ αβγ"), Int(-1 << 62)},
		{Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)), Float(0)},
	}
	for _, r := range rows {
		buf := EncodeRow(r)
		got, n, err := DecodeRow(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", r, err)
		}
		if n != len(buf) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(buf))
		}
		if !got.Equal(r) {
			t.Fatalf("round trip: got %v want %v", got, r)
		}
	}
}

func TestCodecConcatenatedRows(t *testing.T) {
	a := Row{Int(1), Str("x")}
	b := Row{Float(2.5)}
	buf := AppendRow(EncodeRow(a), b)
	gotA, n, err := DecodeRow(buf)
	if err != nil || !gotA.Equal(a) {
		t.Fatalf("first row: %v %v", gotA, err)
	}
	gotB, _, err := DecodeRow(buf[n:])
	if err != nil || !gotB.Equal(b) {
		t.Fatalf("second row: %v %v", gotB, err)
	}
}

func TestCodecTruncation(t *testing.T) {
	full := EncodeRow(Row{Int(12345), Str("hello world"), Float(1.25)})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeRow(full[:cut]); err == nil && cut < len(full) {
			// A shorter prefix may still parse if it happens to form a
			// complete smaller row only when cut==0 is impossible here;
			// we require an error for every strict prefix.
			t.Fatalf("truncated decode at %d bytes should fail", cut)
		}
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeRow([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}); err == nil {
		t.Fatal("garbage field count should fail")
	}
	// Unknown kind byte.
	buf := []byte{1, 200}
	if _, _, err := DecodeRow(buf); err == nil {
		t.Fatal("unknown kind should fail")
	}
	if _, _, err := DecodeRow(nil); err == nil {
		t.Fatal("empty buffer should fail")
	}
}

func randomValue(r *rand.Rand) Value {
	switch r.Intn(6) {
	case 0:
		return Null
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Int(r.Int63() - r.Int63())
	case 3:
		return Float(r.NormFloat64() * 1e6)
	case 4:
		n := r.Intn(20)
		b := make([]byte, n)
		r.Read(b)
		return Str(string(b))
	default:
		return TimeNanos(r.Int63() - r.Int63())
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64, width uint8) bool {
		r := rand.New(rand.NewSource(seed))
		row := make(Row, int(width)%12)
		for i := range row {
			row[i] = randomValue(r)
		}
		buf := EncodeRow(row)
		got, n, err := DecodeRow(buf)
		return err == nil && n == len(buf) && got.Equal(row)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeObservationRow(b *testing.B) {
	row := Observation{
		Ts: time.Unix(1717200000, 0), System: "compass", Source: "power_temp",
		Component: "node04219", Metric: "node_power_w", Value: 2713.5,
	}.Row()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendRow(buf[:0], row)
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkDecodeObservationRow(b *testing.B) {
	buf := EncodeRow(Observation{
		Ts: time.Unix(1717200000, 0), System: "compass", Source: "power_temp",
		Component: "node04219", Metric: "node_power_w", Value: 2713.5,
	}.Row())
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeRow(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDecodeRowToReuseAndIntern(t *testing.T) {
	rows := []Row{
		{Time(time.Unix(100, 0).UTC()), Str("sys"), Str("src"), Str("node00001"), Str("node_power_w"), Float(101)},
		{Time(time.Unix(115, 0).UTC()), Str("sys"), Str("src"), Str("node00002"), Str("node_power_w"), Float(102)},
		{Time(time.Unix(130, 0).UTC()), Str("sys"), Str("src"), Str("node00001"), Str("node_power_w"), Float(103)},
	}
	var bufs [][]byte
	for _, r := range rows {
		bufs = append(bufs, EncodeRow(r))
	}
	in := NewInterner()
	var scratch Row
	var metrics []string
	for i, buf := range bufs {
		got, n, err := DecodeRowTo(scratch, buf, in)
		if err != nil {
			t.Fatalf("decode row %d: %v", i, err)
		}
		if n != len(bufs[i]) {
			t.Fatalf("row %d consumed %d of %d bytes", i, n, len(bufs[i]))
		}
		if !got.Equal(rows[i]) {
			t.Fatalf("row %d: got %v want %v", i, got, rows[i])
		}
		metrics = append(metrics, got[4].StrVal())
		scratch = got[:0]
	}
	// Interning must hand back one canonical string: every occurrence of
	// the repeated vocabulary shares backing storage.
	if unsafe.StringData(metrics[0]) != unsafe.StringData(metrics[1]) ||
		unsafe.StringData(metrics[0]) != unsafe.StringData(metrics[2]) {
		t.Fatal("repeated metric name was not interned to one canonical string")
	}
	// Steady state (vocabulary warm, scratch sized): zero allocations.
	buf := bufs[0]
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeRowTo(scratch, buf, in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeRowTo allocates %v per run, want 0", allocs)
	}
	// Errors still surface through the reuse path.
	if _, _, err := DecodeRowTo(scratch, buf[:3], in); err == nil {
		t.Fatal("truncated row decoded without error")
	}
}

func TestInternerOverflowResets(t *testing.T) {
	in := NewInterner()
	key := []byte("survivor")
	first := in.Bytes(key)
	var b [8]byte
	for i := 0; i < internerCap+10; i++ {
		binary.LittleEndian.PutUint64(b[:], uint64(i))
		in.Bytes(b[:])
	}
	// The table must have been bounded (reset), and re-interning after
	// the reset still works and yields equal content.
	if len(in.strings) > internerCap {
		t.Fatalf("interner grew to %d entries, cap is %d", len(in.strings), internerCap)
	}
	if again := in.Bytes(key); again != first {
		t.Fatalf("post-reset intern = %q, want %q", again, first)
	}
}

// TestEncodeObservationRowAllocatesOnce: EncodeRow(o.Row()) allocates the
// payload and nothing else — Row inlines, so its row stays on the stack —
// and the payload is exactly as long as its capacity. For rows of every
// kind and size EncodeRow's exact buffer holds the bytes AppendRow
// writes.
func TestEncodeObservationRowAllocatesOnce(t *testing.T) {
	o := Observation{
		Ts: time.Unix(1717200000, 123), System: "compass", Source: "power_temp",
		Component: "node04219", Metric: "node_power_w", Value: 2713.5,
	}
	var payload []byte
	if allocs := testing.AllocsPerRun(100, func() { payload = EncodeRow(o.Row()) }); allocs != 1 {
		t.Fatalf("EncodeRow(o.Row()) allocates %v times, want 1 (does Observation.Row still inline?)", allocs)
	}
	if cap(payload) != len(payload) {
		t.Fatalf("payload of %d bytes in a %d-byte buffer", len(payload), cap(payload))
	}
	long := string(make([]byte, 300))
	rows := []Row{
		{},
		{Null, Bool(false), Bool(true)},
		{Int(0), Int(-1), Int(63), Int(-64), Int(64), Int(math.MaxInt64), Int(math.MinInt64)},
		{TimeNanos(-1), Time(time.Unix(0, 0)), Time(o.Ts), Float(math.NaN())},
		{Str(""), Str("x"), Str(long[:127]), Str(long[:128]), Str(long)},
		o.Row(),
	}
	for _, r := range rows {
		got, want := EncodeRow(r), AppendRow(nil, r)
		if string(got) != string(want) || cap(got) != len(got) {
			t.Fatalf("EncodeRow(%v): %d bytes in %d, want AppendRow's %d", r, len(got), cap(got), len(want))
		}
	}
}
