package columnar

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"odakit/internal/schema"
)

// fuzzExtSeeds builds the seed set for FuzzColumnarExt: ext-bearing OCF
// streams (bloom blocks present), their truncations and corruptions,
// mixed ext/non-ext concatenations, and standalone bloom encodings.
func fuzzExtSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	fr := extFrame(tb, 4, 16)
	var seeds [][]byte
	for _, comp := range []Compression{CompressNone, CompressFlate} {
		b, err := Encode(fr, WriterOptions{
			RowGroupRows: 16, Compression: comp, BloomColumns: []string{"node"},
		})
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, b)
		seeds = append(seeds, b[:len(b)-3], b[:len(b)/2])
		for _, i := range []int{len(b) / 2, len(b) - 4} {
			mut := append([]byte{}, b...)
			mut[i] ^= 0xff
			seeds = append(seeds, mut)
		}
	}
	plain, err := Encode(fr, WriterOptions{RowGroupRows: 16})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, append(append([]byte{}, seeds[0]...), plain...))
	// Standalone bloom encodings (valid, truncated, hostile length).
	bl := NewBloom(32)
	for i := 0; i < 32; i++ {
		bl.Insert(BloomHash(fmt.Sprintf("v%d", i)))
	}
	enc := EncodeBloom(bl)
	seeds = append(seeds, enc, enc[:len(enc)/2],
		[]byte{0x07}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x0f})
	return seeds
}

// FuzzColumnarExt fuzzes the group-ext footer path: bloom decoding,
// ext-block parsing, and the pruning scan (zone map + bloom + dictionary-id
// candidate test). Two properties: arbitrary bytes never panic any entry
// point, and for any frame the fuzzer manages to smuggle through the
// decoder, a fresh writer-produced encoding of it must answer equality
// filters exactly. (The original mutated bytes are NOT held to that
// standard: zone maps and blooms are trusted metadata, so a bit-flipped
// footer may legitimately mis-prune — same contract as Parquet.)
func FuzzColumnarExt(f *testing.F) {
	for _, s := range fuzzExtSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // bound per-exec cost; structure, not size, is under test
		}
		// Standalone bloom bytes: decode must never panic, and a decoded
		// filter must survive a re-encode round trip.
		if bl, err := DecodeBloom(data); err == nil {
			_ = bl.MayContain(BloomHash("probe"))
			if _, err := DecodeBloom(EncodeBloom(bl)); err != nil {
				t.Fatalf("re-encoded bloom rejected: %v", err)
			}
		}
		fr, err := NewFileReader(data)
		if err != nil {
			return
		}
		full, err := ReadAll(data)
		if err != nil {
			return
		}
		sch := fr.Schema()
		strCol := -1
		var bloomCols []string
		for i := 0; i < sch.Len(); i++ {
			if sch.Field(i).Kind == schema.KindString {
				bloomCols = append(bloomCols, sch.Field(i).Name)
				if strCol < 0 {
					strCol = i
				}
			}
		}
		if strCol < 0 {
			return
		}
		// Candidates: a value actually present (first non-null) + a ghost.
		in := []schema.Value{schema.Str("no-such-value-anywhere")}
		col := full.Col(strCol)
		for r := 0; r < full.Len(); r++ {
			if !col.IsNull(r) {
				in = append(in, schema.Str(col.Strs()[r]))
				break
			}
		}
		name := sch.Field(strCol).Name
		cols := make([]string, sch.Len())
		for i := range cols {
			cols[i] = sch.Field(i).Name
		}
		pred := Predicate{Col: name, In: in}
		// No-panic pass over the (possibly corrupt) original footer.
		if res, err := fr.ScanColumns(cols, pred); err == nil {
			_ = res.Frame.Len()
		}
		// Exactness pass over a trustworthy re-encoding of the same rows.
		reenc, err := Encode(full, WriterOptions{
			RowGroupRows: 8, BloomColumns: bloomCols,
		})
		if err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		fr2, err := NewFileReader(reenc)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		res, err := fr2.ScanColumns(cols, pred)
		if err != nil {
			t.Fatalf("pruned scan of re-encoded stream failed: %v", err)
		}
		want := full.Filter(func(row schema.Row) bool {
			for _, v := range in {
				if row[strCol].Equal(v) {
					return true
				}
			}
			return false
		})
		if !res.Frame.Equal(want) {
			t.Fatalf("pruned scan diverges from exact filter: %d vs %d rows",
				res.Frame.Len(), want.Len())
		}
	})
}

// TestWriteExtCorpus materializes the seed set as committed corpus files
// so `go test` (without -fuzz) replays them in CI. Regenerate with
// ODA_WRITE_FUZZ_CORPUS=1 after changing the ext format.
func TestWriteExtCorpus(t *testing.T) {
	if os.Getenv("ODA_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set ODA_WRITE_FUZZ_CORPUS=1 to regenerate")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzColumnarExt")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, s := range fuzzExtSeeds(t) {
		sum := sha256.Sum256(s)
		name := hex.EncodeToString(sum[:8])
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
