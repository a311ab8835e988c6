package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"odakit/internal/schema"
)

// fuzzWALSeeds is the seed set: a clean writer-produced node log (a
// partition's records and barrier, a stripe's insert, a reset) plus the
// interesting failure shapes (torn tail, empty, headerless length,
// checksum flip).
func fuzzWALSeeds() [][]byte {
	var clean []byte
	clean, _ = AppendFrame(clean, Frame{Stream: "t/telemetry/0", Entries: []Entry{
		{Kind: KindRecord, Offset: 7, Ts: 1717200000000000000, Key: []byte("k1"), Value: []byte("hello")},
		{Kind: KindRecord, Offset: 8, Ts: 1717200000000000001, Value: []byte("keyless")},
	}})
	clean, _ = AppendFrame(clean, Frame{Stream: "t/telemetry/0", Entries: []Entry{{Kind: KindCommit, HW: 9, Epoch: 3}}})
	clean, _ = AppendFrame(clean, Frame{Stream: "lake/3", Entries: []Entry{{Kind: KindInsert, Seq: 1, Obs: []schema.Observation{{
		Ts: time.Unix(0, 1717200000000000000).UTC(), System: "sys0", Source: "src1",
		Component: "node00042", Metric: "node_power_w", Value: 217.5,
	}}}}})
	clean, _ = AppendFrame(clean, Frame{Stream: "lake/3", Reset: true})
	corrupted := append([]byte(nil), clean...)
	corrupted[11] ^= 0xff
	return [][]byte{
		clean,
		clean[:len(clean)-3],
		{},
		{1, 0, 0, 0, 0, 0, 0, 0},
		corrupted,
	}
}

// FuzzWALReplay pins the frame decoder's three safety properties:
//
//  1. arbitrary bytes never panic and never decode past the first bad
//     frame — the consumed prefix length is the truncation point Open
//     applies to a torn tail;
//  2. whatever decodes re-encodes to exactly the consumed prefix (the
//     encoding is canonical, so a recovered WAL rewrites byte-identically);
//  3. decoding the re-encoded bytes is a fixed point.
func FuzzWALReplay(f *testing.F) {
	for _, s := range fuzzWALSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		frames, n := DecodeFrames(data)
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		var re []byte
		var err error
		for _, f := range frames {
			if re, err = AppendFrame(re, f); err != nil {
				t.Fatalf("decoded frame does not re-encode: %v", err)
			}
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode diverges: %d bytes vs %d consumed", len(re), n)
		}
		frames2, n2 := DecodeFrames(re)
		if n2 != len(re) || len(frames2) != len(frames) {
			t.Fatalf("re-decode not a fixed point: %d/%d frames, %d/%d bytes",
				len(frames2), len(frames), n2, len(re))
		}
	})
}

// TestWriteWALCorpus materializes the seed set as committed corpus
// files so `go test` (without -fuzz) replays them in CI. Regenerate
// with ODA_WRITE_FUZZ_CORPUS=1 after changing the frame format.
func TestWriteWALCorpus(t *testing.T) {
	if os.Getenv("ODA_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set ODA_WRITE_FUZZ_CORPUS=1 to regenerate")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWALReplay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, s := range fuzzWALSeeds() {
		sum := sha256.Sum256(s)
		name := hex.EncodeToString(sum[:8])
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
