package columnar

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"

	"odakit/internal/schema"
)

// Magic identifies an OCF stream.
var Magic = []byte("OCF1")

// Block markers within a stream.
const (
	markerRowGroup byte = 0x01
	// markerGroupExt carries optional per-row-group extensions (bloom
	// filters) for the row group that immediately precedes it. Kept as a
	// separate block so pre-extension readers of concatenated streams
	// fail loudly on the unknown marker instead of misparsing.
	markerGroupExt byte = 0x02
)

// Per-column extension flags inside a markerGroupExt block.
const (
	extNone  byte = 0
	extBloom byte = 1
)

// Compression selects the per-column-chunk compression codec.
type Compression byte

// Supported compression codecs.
const (
	CompressNone  Compression = 0
	CompressFlate Compression = 1
	// codecLight marks a chunk stored in its light form, uncompressed; the
	// writer picks it per chunk when it is the smallest, whatever the
	// option.
	codecLight Compression = 2
)

// WriterOptions tunes the writer.
type WriterOptions struct {
	// RowGroupRows flushes a row group after this many buffered rows.
	// Defaults to 8192.
	RowGroupRows int
	// Compression is the column-chunk codec; the zero value is
	// CompressNone. CompressFlate deflates at flate.DefaultCompression.
	// Under either, a chunk whose light form is no larger is stored light.
	Compression Compression
	// BloomColumns lists string columns that get a split-block bloom
	// filter over their distinct non-null values in each row group,
	// emitted as a group-ext block. Equality predicates on these columns
	// can then skip row groups without inflating any chunk. Non-string
	// and unknown names are ignored.
	BloomColumns []string
}

func (o WriterOptions) withDefaults() WriterOptions {
	if o.RowGroupRows <= 0 {
		o.RowGroupRows = 8192
	}
	return o
}

// Writer streams frames into an OCF byte stream. It buffers rows into row
// groups; Close flushes the final partial group. A Writer is not safe for
// concurrent use.
type Writer struct {
	w      io.Writer
	sch    *schema.Schema
	opts   WriterOptions
	buf    *schema.Frame
	header bool
	closed bool
	// zw deflates every chunk into zb, Reset between chunks: building a
	// flate.Writer allocates hundreds of KB of state.
	zw  *flate.Writer
	zb  bytes.Buffer
	enc chunkEncoder
	// bloomed marks the string columns BloomColumns names; blooms holds
	// the filters of the row group being flushed.
	bloomed []bool
	blooms  []*Bloom
}

// NewWriter returns a writer that emits an OCF stream for the schema.
func NewWriter(w io.Writer, s *schema.Schema, opts WriterOptions) *Writer {
	wr := &Writer{w: w, sch: s, opts: opts.withDefaults(), buf: schema.NewFrame(s)}
	for _, name := range opts.BloomColumns {
		if i, ok := s.Index(name); ok && s.Field(i).Kind == schema.KindString {
			if wr.bloomed == nil {
				wr.bloomed, wr.blooms = make([]bool, s.Len()), make([]*Bloom, s.Len())
			}
			wr.bloomed[i] = true
		}
	}
	return wr
}

// WriteRow buffers one row, flushing a row group when full.
func (w *Writer) WriteRow(r schema.Row) error {
	if w.closed {
		return fmt.Errorf("columnar: write after close")
	}
	if err := w.buf.AppendRow(r); err != nil {
		return err
	}
	if w.buf.Len() >= w.opts.RowGroupRows {
		return w.flush()
	}
	return nil
}

// WriteFrame buffers all rows of f, whose schema must equal the writer's,
// one column range at a time up to each row-group boundary. The stream is
// byte for byte what a WriteRow loop over f's rows emits.
func (w *Writer) WriteFrame(f *schema.Frame) error {
	if w.closed {
		return fmt.Errorf("columnar: write after close")
	}
	for lo := 0; lo < f.Len(); {
		hi := min(f.Len(), lo+w.opts.RowGroupRows-w.buf.Len())
		if err := w.buf.AppendRange(f, lo, hi); err != nil {
			return err
		}
		lo = hi
		if w.buf.Len() >= w.opts.RowGroupRows {
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close flushes buffered rows. It writes the header even for an empty
// stream so readers can recover the schema.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.writeHeader(); err != nil {
		return err
	}
	if w.buf.Len() > 0 {
		return w.flushLocked()
	}
	return nil
}

func (w *Writer) writeHeader() error {
	if w.header {
		return nil
	}
	w.header = true
	var hdr []byte
	hdr = append(hdr, Magic...)
	hdr = binary.AppendUvarint(hdr, uint64(w.sch.Len()))
	for i := 0; i < w.sch.Len(); i++ {
		f := w.sch.Field(i)
		hdr = binary.AppendUvarint(hdr, uint64(len(f.Name)))
		hdr = append(hdr, f.Name...)
		hdr = append(hdr, byte(f.Kind))
	}
	_, err := w.w.Write(hdr)
	return err
}

func (w *Writer) flush() error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	return w.flushLocked()
}

func (w *Writer) flushLocked() error {
	f := w.buf
	w.buf = schema.NewFrame(w.sch)

	var out []byte
	out = append(out, markerRowGroup)
	out = binary.AppendUvarint(out, uint64(f.Len()))
	out = binary.AppendUvarint(out, uint64(w.sch.Len()))
	for c := 0; c < w.sch.Len(); c++ {
		col := f.Col(c)
		stats := computeStats(col)
		out = appendStats(out, stats)

		w.enc.encode(col)
		if w.bloomed != nil && w.bloomed[c] {
			w.blooms[c] = w.enc.dict.bloom()
		}
		raw := w.enc.plain
		payload, comp := raw, CompressNone
		if w.opts.Compression == CompressFlate {
			z, err := w.deflate(raw)
			if err != nil {
				return err
			}
			if len(z) < len(raw) {
				payload, comp = z, CompressFlate // copied into out below, before the next Reset
			}
		}
		// The light form wins ties: it decodes without inflating.
		if light := w.enc.light; len(light) > 0 && len(light) <= len(payload) {
			payload, comp, raw = light, codecLight, light
		}
		out = append(out, byte(comp))
		out = binary.AppendUvarint(out, uint64(len(raw)))
		out = binary.AppendUvarint(out, uint64(len(payload)))
		out = append(out, payload...)
	}
	out = w.appendGroupExt(out)
	_, err := w.w.Write(out)
	return err
}

// deflate compresses raw into w.zb and returns its bytes, valid until the
// next call.
func (w *Writer) deflate(raw []byte) ([]byte, error) {
	w.zb.Reset()
	if w.zw == nil {
		zw, err := flate.NewWriter(&w.zb, flate.DefaultCompression)
		if err != nil {
			return nil, fmt.Errorf("columnar: flate: %w", err)
		}
		w.zw = zw
	} else {
		w.zw.Reset(&w.zb)
	}
	if _, err := w.zw.Write(raw); err != nil {
		return nil, fmt.Errorf("columnar: flate write: %w", err)
	}
	if err := w.zw.Close(); err != nil {
		return nil, fmt.Errorf("columnar: flate close: %w", err)
	}
	return w.zb.Bytes(), nil
}

// appendGroupExt emits the bloom-filter ext block for the row group just
// encoded, when any BloomColumns resolve to string fields.
func (w *Writer) appendGroupExt(out []byte) []byte {
	if w.bloomed == nil {
		return out
	}
	out = append(out, markerGroupExt)
	out = binary.AppendUvarint(out, uint64(w.sch.Len()))
	for c := 0; c < w.sch.Len(); c++ {
		if !w.bloomed[c] {
			out = append(out, extNone)
			continue
		}
		out = append(out, extBloom)
		out = appendBloom(out, w.blooms[c])
	}
	return out
}

// Encode serializes a frame into a standalone OCF buffer.
func Encode(f *schema.Frame, opts WriterOptions) ([]byte, error) {
	var b bytes.Buffer
	w := NewWriter(&b, f.Schema(), opts)
	if err := w.WriteFrame(f); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
