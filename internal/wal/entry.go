package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"odakit/internal/schema"
)

// Kind discriminates WAL entries.
type Kind uint8

const (
	// KindRecord is one replicated stream record (a partition log entry).
	KindRecord Kind = 1
	// KindCommit is a commit barrier: every record appended before it was
	// quorum-committed through offset HW at partition epoch Epoch.
	KindCommit Kind = 2
	// KindInsert is one lake stripe insert batch, tagged with its
	// per-stripe sequence number.
	KindInsert Kind = 3
)

// Entry is one WAL record. Kind selects which fields are meaningful.
type Entry struct {
	Kind Kind

	// KindRecord: a partition log record. Ts is unix nanoseconds.
	Offset int64
	Ts     int64
	Key    []byte
	Value  []byte

	// KindCommit: the committed high watermark and the partition epoch
	// it was observed at.
	HW    int64
	Epoch int64

	// KindInsert: a stripe insert batch and its sequence number.
	Seq int64
	Obs []schema.Observation
}

// Frame is one unit of the node log: the entries one Append call staged
// on one stream, or (Reset) the point where Remove emptied the stream.
type Frame struct {
	Stream  string
	Reset   bool
	Entries []Entry
}

// Frame layout: [u32 payload length][u32 CRC32-C of payload][payload],
// and the payload is [u8 tag][u32 stream length][stream][body]: a batch
// frame's body is [u32 entry count][entry]…, a reset frame's is empty.
// All integers are little-endian and fixed-width (no varints): the
// encoding is canonical, so decoding a writer-produced WAL and
// re-encoding it reproduces the exact bytes — the round-trip property
// FuzzWALReplay pins. The tags are not entry kinds, so a frame of the
// older one-entry-per-frame layout never decodes as a frame of this one.
const (
	frameHeader = 8
	// MaxFrame bounds one frame's payload so a corrupt length field can
	// never drive a giant allocation.
	MaxFrame = 64 << 20

	tagBatch = 0x10
	tagReset = 0x11
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var errBadEntry = errors.New("wal: bad entry")

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendI64(b []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func appendBlob(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// appendEntry appends e's canonical encoding to b.
func appendEntry(b []byte, e Entry) ([]byte, error) {
	b = append(b, byte(e.Kind))
	switch e.Kind {
	case KindRecord:
		b = appendI64(b, e.Offset)
		b = appendI64(b, e.Ts)
		b = appendBlob(b, e.Key)
		b = appendBlob(b, e.Value)
	case KindCommit:
		b = appendI64(b, e.HW)
		b = appendI64(b, e.Epoch)
	case KindInsert:
		b = appendI64(b, e.Seq)
		b = appendU32(b, uint32(len(e.Obs)))
		for _, o := range e.Obs {
			b = appendI64(b, o.Ts.UnixNano())
			b = appendStr(b, o.System)
			b = appendStr(b, o.Source)
			b = appendStr(b, o.Component)
			b = appendStr(b, o.Metric)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(o.Value))
		}
	default:
		return b, fmt.Errorf("%w: unknown kind %d", errBadEntry, e.Kind)
	}
	return b, nil
}

// decoder reads canonical encodings off the front of b. With check set
// it only walks them: nothing is copied out and no entry is built.
type decoder struct {
	b     []byte
	check bool
}

func (d *decoder) u32() (uint32, bool) {
	if len(d.b) < 4 {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v, true
}

func (d *decoder) i64() (int64, bool) {
	if len(d.b) < 8 {
		return 0, false
	}
	v := int64(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v, true
}

// blob copies the length-prefixed bytes out of the buffer (a zero
// length decodes to nil) so entries never alias the replay buffer.
func (d *decoder) blob() ([]byte, bool) {
	n, ok := d.u32()
	if !ok || int64(n) > int64(len(d.b)) {
		return nil, false
	}
	if n == 0 {
		return nil, true
	}
	if d.check {
		d.b = d.b[n:]
		return nil, true
	}
	out := make([]byte, n)
	copy(out, d.b)
	d.b = d.b[n:]
	return out, true
}

func (d *decoder) str() (string, bool) {
	b, ok := d.raw()
	if !ok || d.check {
		return "", ok
	}
	return string(b), true
}

// raw returns the length-prefixed bytes in place.
func (d *decoder) raw() ([]byte, bool) {
	n, ok := d.u32()
	if !ok || int64(n) > int64(len(d.b)) {
		return nil, false
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return b, true
}

// entry decodes one canonical entry off the front of the buffer.
func (d *decoder) entry() (Entry, bool) {
	if len(d.b) == 0 {
		return Entry{}, false
	}
	e := Entry{Kind: Kind(d.b[0])}
	d.b = d.b[1:]
	ok := true
	switch e.Kind {
	case KindRecord:
		var o1, o2 bool
		e.Offset, o1 = d.i64()
		e.Ts, o2 = d.i64()
		var o3, o4 bool
		e.Key, o3 = d.blob()
		e.Value, o4 = d.blob()
		ok = o1 && o2 && o3 && o4
	case KindCommit:
		var o1, o2 bool
		e.HW, o1 = d.i64()
		e.Epoch, o2 = d.i64()
		ok = o1 && o2
	case KindInsert:
		var o1, o2 bool
		e.Seq, o1 = d.i64()
		var cnt uint32
		cnt, o2 = d.u32()
		ok = o1 && o2
		// Each observation is at least 8+4*4+8 = 32 bytes; reject counts
		// the remaining payload cannot possibly hold before allocating.
		if ok && int64(cnt)*32 > int64(len(d.b)) {
			ok = false
		}
		if ok && cnt > 0 {
			if !d.check {
				e.Obs = make([]schema.Observation, 0, cnt)
			}
			for i := uint32(0); i < cnt && ok; i++ {
				var o schema.Observation
				var ns int64
				var bits uint64
				var k1, k2, k3, k4, k5, k6 bool
				ns, k1 = d.i64()
				o.System, k2 = d.str()
				o.Source, k3 = d.str()
				o.Component, k4 = d.str()
				o.Metric, k5 = d.str()
				if len(d.b) >= 8 {
					bits = binary.LittleEndian.Uint64(d.b)
					d.b = d.b[8:]
					k6 = true
				}
				ok = k1 && k2 && k3 && k4 && k5 && k6
				if ok && !d.check {
					o.Ts = time.Unix(0, ns).UTC()
					o.Value = math.Float64frombits(bits)
					e.Obs = append(e.Obs, o)
				}
			}
		}
	default:
		ok = false
	}
	return e, ok
}

// openFrame reserves a frame header and writes the payload's tag and
// stream; a batch frame also reserves its entry count.
func openFrame(b []byte, tag byte, stream string) []byte {
	b = append(b, make([]byte, frameHeader)...)
	b = append(b, tag)
	b = appendStr(b, stream)
	if tag == tagBatch {
		b = appendU32(b, 0)
	}
	return b
}

// closeFrame fills in the header of the frame that starts at start (and
// a batch frame's entry count), once its payload is complete; a payload
// over limit bytes is refused.
func closeFrame(b []byte, start int, entries uint32, limit int) error {
	payload := b[start+frameHeader:]
	if len(payload) > limit {
		return fmt.Errorf("%w: a %d-byte frame exceeds %d bytes", errBadEntry, len(payload), limit)
	}
	if payload[0] == tagBatch {
		binary.LittleEndian.PutUint32(payload[5+binary.LittleEndian.Uint32(payload[1:]):], entries)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(payload, castagnoli))
	return nil
}

// AppendFrame appends f to b as one framed, checksummed record.
func AppendFrame(b []byte, f Frame) ([]byte, error) {
	start := len(b)
	if f.Reset {
		if len(f.Entries) > 0 {
			return b, fmt.Errorf("%w: a reset frame holds no entries", errBadEntry)
		}
		b = openFrame(b, tagReset, f.Stream)
		return b, closeFrame(b, start, 0, MaxFrame)
	}
	b = openFrame(b, tagBatch, f.Stream)
	var err error
	for _, e := range f.Entries {
		if b, err = appendEntry(b, e); err != nil {
			return b[:start], err
		}
	}
	if err := closeFrame(b, start, uint32(len(f.Entries)), MaxFrame); err != nil {
		return b[:start], err
	}
	return b, nil
}

// appendBatch appends entries on one stream as batch frames whose
// payloads fit in limit bytes (MaxFrame, but for tests): one frame,
// unless the entries together do not fit, when each frame takes as many
// as fit. An entry that alone does not fit is refused, and b comes back
// as it was.
func appendBatch(b []byte, stream string, entries []Entry, limit int) ([]byte, error) {
	orig := len(b)
	start, n := orig, uint32(0)
	b = openFrame(b, tagBatch, stream)
	for _, e := range entries {
		mark := len(b)
		var err error
		if b, err = appendEntry(b, e); err != nil {
			return b[:orig], err
		}
		if len(b)-start-frameHeader > limit && n > 0 {
			// The frame is full without this entry: close it, and the
			// entry opens the next one.
			tail := append([]byte(nil), b[mark:]...)
			if err := closeFrame(b[:mark], start, n, limit); err != nil {
				return b[:orig], err
			}
			start, n = mark, 0
			b = append(openFrame(b[:mark], tagBatch, stream), tail...)
		}
		n++
	}
	if err := closeFrame(b, start, n, limit); err != nil {
		return b[:orig], err
	}
	return b, nil
}

// nextFrame checks the frame at the front of data — length, checksum —
// and returns its payload and its length on disk; ok is false for a
// torn or corrupt frame.
func nextFrame(data []byte) (payload []byte, n int, ok bool) {
	if len(data) < frameHeader {
		return nil, 0, false
	}
	ln := binary.LittleEndian.Uint32(data)
	if ln == 0 || ln > MaxFrame || int64(ln) > int64(len(data)-frameHeader) {
		return nil, 0, false
	}
	payload = data[frameHeader : frameHeader+int(ln)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, 0, false
	}
	return payload, frameHeader + int(ln), true
}

// frameHead reads a payload's tag and stream (in place) and returns the
// decoder positioned at its body.
func frameHead(p []byte) (d decoder, tag byte, stream []byte, ok bool) {
	if len(p) == 0 {
		return d, 0, nil, false
	}
	tag, d = p[0], decoder{b: p[1:]}
	stream, ok = d.raw()
	return d, tag, stream, ok && (tag == tagBatch || tag == tagReset)
}

// decodeFrame decodes one canonical payload. Trailing bytes make it
// invalid: a canonical encoding has exactly one byte representation.
// With check it only validates: the frame comes back without entries,
// and without its stream unless it is a reset.
func decodeFrame(p []byte, check bool) (Frame, bool) {
	d, tag, stream, ok := frameHead(p)
	if !ok {
		return Frame{}, false
	}
	f := Frame{Reset: tag == tagReset}
	if !check || f.Reset {
		f.Stream = string(stream)
	}
	if !f.Reset {
		cnt, ok := d.u32()
		// An entry is at least 13 bytes (an insert of no observations).
		if !ok || int64(cnt)*13 > int64(len(d.b)) {
			return Frame{}, false
		}
		d.check = check
		if !check {
			f.Entries = make([]Entry, 0, cnt)
		}
		for range cnt {
			e, ok := d.entry()
			if !ok {
				return Frame{}, false
			}
			if !check {
				f.Entries = append(f.Entries, e)
			}
		}
	}
	return f, len(d.b) == 0
}

// DecodeFrames decodes every complete, checksummed frame at the front
// of data, returning the frames and the byte length of the valid
// prefix. It never panics on arbitrary input; the first torn, corrupt,
// or non-canonical frame ends the scan — the same truncate-at-first-
// bad-frame rule Open applies to the log's tail.
func DecodeFrames(data []byte) ([]Frame, int) {
	var out []Frame
	n := 0
	for {
		p, ln, ok := nextFrame(data[n:])
		if !ok {
			return out, n
		}
		f, ok := decodeFrame(p, false)
		if !ok {
			return out, n
		}
		out = append(out, f)
		n += ln
	}
}
