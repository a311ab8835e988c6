package httpapi

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"time"

	"odakit/internal/cq"
	"odakit/internal/schema"
)

// seriesEncoder appends a query result frame in the series shape a lake
// query, a prepared run, a CQ read and a CQ update answer with:
//
//	[{"ts":"2024-06-01T00:00:15Z","dims":{"metric":"cpu_power_w"},"value":412.5},…]
//
// byte for byte as encoding/json encoded the same points: the time in
// RFC 3339 with its nanoseconds, the grouped dimensions once each by name
// (no "dims" when the query groups by nothing), a non-finite value as
// null, and strings and floats by encoding/json's rules.
type seriesEncoder struct {
	frame *schema.Frame
	ts    *schema.Column
	value *schema.Column
	dims  []seriesDim
}

// seriesDim is one grouped dimension: its name and its column.
type seriesDim struct {
	name string
	col  *schema.Column
}

// newSeriesEncoder encodes frame, grouped by groupBy, whose names may
// repeat and come in any order.
func newSeriesEncoder(frame *schema.Frame, groupBy []string) *seriesEncoder {
	sch := frame.Schema()
	e := &seriesEncoder{frame: frame, ts: frame.Col(0), value: frame.Col(sch.MustIndex("value"))}
	names := slices.Clone(groupBy)
	slices.Sort(names)
	for _, d := range slices.Compact(names) {
		e.dims = append(e.dims, seriesDim{name: d, col: frame.Col(sch.MustIndex(d))})
	}
	return e
}

// appendPoint appends point i. Its only error is a time encoding/json
// refuses, one outside years 0–9999.
func (e *seriesEncoder) appendPoint(b []byte, i int) ([]byte, error) {
	b = append(b, `{"ts":`...)
	b, err := appendJSONTime(b, e.ts.Value(i).TimeVal())
	if err != nil {
		return b, err
	}
	if len(e.dims) > 0 {
		b = append(b, `,"dims":{`...)
		for k, d := range e.dims {
			if k > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, d.name)
			b = append(b, ':')
			b = appendJSONString(b, d.col.Value(i).StrVal())
		}
		b = append(b, '}')
	}
	b = append(b, `,"value":`...)
	b = appendJSONFloat(b, e.value.Value(i).FloatVal())
	return append(b, '}'), nil
}

// appendAll appends every point as one JSON array.
func (e *seriesEncoder) appendAll(b []byte) ([]byte, error) {
	b = append(b, '[')
	for i := 0; i < e.frame.Len(); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = e.appendPoint(b, i); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// seriesBuffer is room for a frame of n points, so that encoding one
// allocates once.
func seriesBuffer(n int) []byte { return make([]byte, 0, 96*n+64) }

// writeSeries answers 200 with frame in the series shape, or, when a
// point cannot be encoded, a 500 that carries encoding/json's error.
func (s *Server) writeSeries(w http.ResponseWriter, frame *schema.Frame, groupBy []string) {
	body, err := newSeriesEncoder(frame, groupBy).appendAll(seriesBuffer(frame.Len()))
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "internal", "encode response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(body, '\n'))
}

// streamSeries writes frame in the series shape as incrementally flushed
// JSON, byte-identical to writeSeries' body: a client behind a flushing
// proxy sees the first chunk while the tail is still encoding. A point
// that cannot be encoded ends the stream where it would have begun; the
// status is gone by then.
func streamSeries(w http.ResponseWriter, frame *schema.Frame, groupBy []string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	e := newSeriesEncoder(frame, groupBy)
	b := append(seriesBuffer(min(frame.Len(), streamFlushEvery)), '[')
	for i := 0; i < frame.Len(); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		next, err := e.appendPoint(b, i)
		if err != nil {
			_, _ = w.Write(b)
			return
		}
		b = next
		if fl != nil && (i+1)%streamFlushEvery == 0 {
			_, _ = w.Write(b)
			fl.Flush()
			b = b[:0]
		}
	}
	_, _ = w.Write(append(b, "]\n"...))
	if fl != nil {
		fl.Flush()
	}
}

// appendUpdate appends one CQ watch notification: the view's position
// and its whole current window (CQ windows are small by construction —
// O(window/granularity × groups) — so shipping the whole frame beats a
// diff protocol for every consumer this portal serves):
//
//	{"id":…,"gen":…,"watermark":…,"window_from":…,"window_to":…,"alerts":…,"points":[…]}
func appendUpdate(b []byte, id string, info cq.WindowInfo, alerts int64, frame *schema.Frame, groupBy []string) ([]byte, error) {
	b = append(b, `{"id":`...)
	b = appendJSONString(b, id)
	b = append(b, `,"gen":`...)
	b = strconv.AppendUint(b, info.Gen, 10)
	for _, f := range [...]struct {
		key string
		t   time.Time
	}{{`,"watermark":`, info.Watermark}, {`,"window_from":`, info.From}, {`,"window_to":`, info.To}} {
		var err error
		if b, err = appendJSONTime(append(b, f.key...), f.t); err != nil {
			return b, err
		}
	}
	b = append(b, `,"alerts":`...)
	b = strconv.AppendInt(b, alerts, 10)
	b = append(b, `,"points":`...)
	b, err := newSeriesEncoder(frame, groupBy).appendAll(b)
	return append(b, '}'), err
}

// appendJSONTime appends t as encoding/json does, quoted RFC 3339 with
// nanoseconds. A time it cannot write that way — a year outside 0–9999,
// a zone 24 hours or more off UTC — goes through encoding/json, which
// refuses it, so the error is its.
func appendJSONTime(b []byte, t time.Time) ([]byte, error) {
	if _, off := t.Zone(); t.Year() < 0 || t.Year() > 9999 || off <= -24*3600 || off >= 24*3600 {
		q, err := json.Marshal(t)
		return append(b, q...), err
	}
	b = append(b, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	return append(b, '"'), nil
}

// appendJSONFloat appends f as encoding/json does — the shortest
// decimal, in exponent form below 1e-6 and from 1e21 on — and a NaN or
// an infinity, which JSON has no number for, as null.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 is e-7, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s quoted. Printable ASCII other than the
// quote, the backslash and the HTML characters <, > and & is copied as
// is; any other string goes through encoding/json, so escapes, HTML
// escaping and invalid UTF-8 are its.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
