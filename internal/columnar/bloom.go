// Split-block bloom filters (SBBF) for dimension-equality pruning, the
// Parquet technique: the filter is an array of 256-bit blocks, a value's
// upper hash bits pick one block, and eight salt-derived bits inside it
// are set/tested — one cache line per probe, no modular bit arithmetic
// across the whole filter. Filters ride in per-row-group ext blocks
// (writer.go) and in the cold-tier segment manifest (tsdb), so an
// equality filter can rule out a whole file or row group before any
// chunk is inflated.
package columnar

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// bloomBlockWords is the block width: 8 × uint32 = 256 bits.
const bloomBlockWords = 8

// bloomSalt spreads the low hash word into eight independent bit picks,
// one per block word (the Parquet SBBF constants).
var bloomSalt = [bloomBlockWords]uint32{
	0x47b6137b, 0x44974d91, 0x8824ad5b, 0xa2b7289d,
	0x705495c7, 0x2df1424b, 0x9efc4947, 0x5c6bfb31,
}

// Bloom is a split-block bloom filter over 64-bit hashes.
type Bloom struct {
	words []uint32 // length is a positive multiple of bloomBlockWords
}

// NewBloom sizes a filter for about n distinct values at ~10 bits per
// value (≈1% false-positive rate), rounded up to whole blocks.
func NewBloom(n int) *Bloom {
	blocks := (n*10 + 255) / 256
	if blocks < 1 {
		blocks = 1
	}
	return &Bloom{words: make([]uint32, blocks*bloomBlockWords)}
}

// BloomHash is the 64-bit FNV-1a hash writers and readers must share.
func BloomHash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime64
	}
	return h
}

// block returns the 8-word block the hash maps to.
func (b *Bloom) block(h uint64) []uint32 {
	i := (h >> 32) % uint64(len(b.words)/bloomBlockWords)
	return b.words[i*bloomBlockWords : (i+1)*bloomBlockWords]
}

// Insert adds a hash to the filter.
func (b *Bloom) Insert(h uint64) {
	if b == nil || len(b.words) == 0 {
		return
	}
	blk := b.block(h)
	x := uint32(h)
	for i := range blk {
		blk[i] |= 1 << ((x * bloomSalt[i]) >> 27)
	}
}

// MayContain reports whether h may have been inserted; false means
// definitely absent. A nil (or empty) filter cannot prune and reports
// true for everything.
func (b *Bloom) MayContain(h uint64) bool {
	if b == nil || len(b.words) == 0 {
		return true
	}
	blk := b.block(h)
	x := uint32(h)
	for i := range blk {
		if blk[i]&(1<<((x*bloomSalt[i])>>27)) == 0 {
			return false
		}
	}
	return true
}

// maxBloomWords caps a decoded filter at 1 MiB: the declared word count
// is attacker-controlled in a hostile stream and must never size an
// arbitrary allocation.
const maxBloomWords = 1 << 18

// appendBloom serializes a filter (word count, then little-endian
// words); nil encodes as a zero count.
func appendBloom(buf []byte, b *Bloom) []byte {
	if b == nil {
		return binary.AppendUvarint(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(b.words)))
	for _, w := range b.words {
		buf = binary.LittleEndian.AppendUint32(buf, w)
	}
	return buf
}

// appendBloomWords parses a serialized filter, appending its words to
// dst, and returns the bytes consumed; no words is the nil filter. The
// word count is validated against block alignment, the hard cap, and the
// remaining buffer (divide, don't multiply: 4*n overflows for hostile n).
func appendBloomWords(dst []uint32, buf []byte) ([]uint32, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("columnar: bad bloom word count")
	}
	if n == 0 {
		return dst, sz, nil
	}
	if n%bloomBlockWords != 0 || n > maxBloomWords || n > uint64(len(buf)-sz)/4 {
		return nil, 0, fmt.Errorf("columnar: bad bloom size %d", n)
	}
	off := sz
	dst = slices.Grow(dst, int(n))
	for i := uint64(0); i < n; i++ {
		dst = append(dst, binary.LittleEndian.Uint32(buf[off:]))
		off += 4
	}
	return dst, off, nil
}

// EncodeBloom serializes a filter into a standalone buffer — the form
// the tsdb cold-tier manifest stores per dimension.
func EncodeBloom(b *Bloom) []byte { return appendBloom(nil, b) }

// DecodeBloom parses a standalone EncodeBloom buffer.
func DecodeBloom(buf []byte) (*Bloom, error) {
	words, n, err := appendBloomWords(nil, buf)
	if err != nil {
		return nil, err
	}
	if n != len(buf) {
		return nil, fmt.Errorf("columnar: %d trailing bytes after bloom", len(buf)-n)
	}
	if words == nil {
		return nil, nil
	}
	return &Bloom{words: words}, nil
}
