package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"odakit/internal/cq"
	"odakit/internal/schema"
)

// refPoint is one series point as encoding/json reflected it before the
// series encoder: the reference the encoder's bytes are held to.
type refPoint struct {
	Ts    time.Time         `json:"ts"`
	Dims  map[string]string `json:"dims,omitempty"`
	Value *float64          `json:"value"`
}

// refPoints is the per-point map and boxed-row flattening the series
// encoder replaced.
func refPoints(frame *schema.Frame, groupBy []string) []refPoint {
	out := make([]refPoint, 0, frame.Len())
	values := make([]float64, frame.Len())
	sch := frame.Schema()
	vi := sch.MustIndex("value")
	for i := 0; i < frame.Len(); i++ {
		row := frame.Row(i)
		values[i] = row[vi].FloatVal()
		p := refPoint{Ts: row[0].TimeVal(), Value: finiteOrNil(&values[i])}
		if len(groupBy) > 0 {
			p.Dims = map[string]string{}
			for _, d := range groupBy {
				p.Dims[d] = row[sch.MustIndex(d)].StrVal()
			}
		}
		out = append(out, p)
	}
	return out
}

// refUpdate is a CQ watch notification as encoding/json reflected it.
type refUpdate struct {
	ID        string     `json:"id"`
	Gen       uint64     `json:"gen"`
	Watermark time.Time  `json:"watermark,omitempty"`
	From      time.Time  `json:"window_from,omitempty"`
	To        time.Time  `json:"window_to,omitempty"`
	Alerts    int64      `json:"alerts"`
	Points    []refPoint `json:"points"`
}

var seriesDims = []string{"system", "source", "component", "metric"}

// seriesStrings are dimension values encoding/json escapes in every way
// it has: HTML characters, control characters, invalid UTF-8, the two
// JavaScript line separators, quotes and backslashes, and ones it copies.
var seriesStrings = []string{
	"node00003", "", "cpu_power_w", "<b>a&b</b>", "ünïcödé", "emoji 😀", "tab\there", "nl\n",
	"quote\"back\\slash", "\x00\x01\x1f", "\xff\xfe bad", "ls ps ", "\x7f del", "a b",
}

// randomFloat draws non-finite values, both zeros, the exponent-form
// boundaries and values across the whole range.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1 - 2*rng.Intn(2))
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return []float64{1e-6, 9.99e-7, 1e-7, 1e21, 9.99e20, 1e20, math.MaxFloat64, math.SmallestNonzeroFloat64}[rng.Intn(8)]
	case 4:
		return float64(rng.Intn(2000)-1000) / 4
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
}

// randomSeriesFrame is a query result frame: a time column, the four
// dimensions and the value, with nulls and extreme times.
func randomSeriesFrame(t testing.TB, rng *rand.Rand, rows int) *schema.Frame {
	t.Helper()
	sch := schema.New(
		schema.Field{Name: "ts", Kind: schema.KindTime},
		schema.Field{Name: "system", Kind: schema.KindString},
		schema.Field{Name: "source", Kind: schema.KindString},
		schema.Field{Name: "component", Kind: schema.KindString},
		schema.Field{Name: "metric", Kind: schema.KindString},
		schema.Field{Name: "value", Kind: schema.KindFloat},
	)
	f := schema.NewFrame(sch)
	for r := 0; r < rows; r++ {
		ts := schema.TimeNanos(t0.UnixNano() + rng.Int63n(int64(24*time.Hour)))
		switch rng.Intn(10) {
		case 0:
			ts = schema.TimeNanos(rng.Int63() - rng.Int63())
		case 1:
			ts = schema.TimeNanos([]int64{math.MinInt64, math.MaxInt64, 0, -1}[rng.Intn(4)])
		case 2:
			ts = schema.Null
		}
		row := schema.Row{ts}
		for range seriesDims {
			if rng.Intn(20) == 0 {
				row = append(row, schema.Null)
			} else {
				row = append(row, schema.Str(seriesStrings[rng.Intn(len(seriesStrings))]))
			}
		}
		if rng.Intn(20) == 0 {
			row = append(row, schema.Null)
		} else {
			row = append(row, schema.Float(randomFloat(rng)))
		}
		if err := f.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// randomGroupBy draws up to five dimension names, repeats and any order
// included.
func randomGroupBy(rng *rand.Rand) []string {
	var out []string
	for i := rng.Intn(6); i > 0; i-- {
		out = append(out, seriesDims[rng.Intn(len(seriesDims))])
	}
	return out
}

// TestSeriesEncoderMatchesReflection: on random frames and group-bys the
// series encoder writes exactly the bytes json.Encoder wrote for the
// reflected points — the one-shot answer, the streamed one, and a CQ
// update around them — and where encoding/json refused a value (a time
// outside years 0–9999, so a 500 before) the encoder refuses it too,
// with the same error.
func TestSeriesEncoderMatchesReflection(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 300; iter++ {
		f := randomSeriesFrame(t, rng, rng.Intn(3*streamFlushEvery))
		groupBy := randomGroupBy(rng)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(refPoints(f, groupBy)); err != nil {
			t.Fatal(err)
		}
		got, err := newSeriesEncoder(f, groupBy).appendAll(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got = append(got, '\n'); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("iteration %d, group by %v: encoder diverges from encoding/json:\n%s\n%s", iter, groupBy, got, want.Bytes())
		}
		rec := httptest.NewRecorder()
		streamSeries(rec, f, groupBy)
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("iteration %d: streamed bytes diverge from encoding/json", iter)
		}

		info := cq.WindowInfo{Gen: rng.Uint64(), Watermark: time.Unix(0, rng.Int63()).UTC(), From: t0, To: t0.Add(time.Hour)}
		switch rng.Intn(6) {
		case 0:
			info.Watermark = time.Time{}
		case 1:
			info.From = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
		case 2:
			info.To = time.Date(-1, 12, 31, 0, 0, 0, 0, time.UTC)
		}
		id := seriesStrings[rng.Intn(len(seriesStrings))]
		alerts := rng.Int63() - rng.Int63()
		wantU, wantErr := json.Marshal(refUpdate{ID: id, Gen: info.Gen, Watermark: info.Watermark, From: info.From, To: info.To,
			Alerts: alerts, Points: refPoints(f, groupBy)})
		gotU, gotErr := appendUpdate(nil, id, info, alerts, f, groupBy)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("iteration %d: update error %v, encoding/json's %v", iter, gotErr, wantErr)
		}
		if wantErr == nil && !bytes.Equal(gotU, wantU) {
			t.Fatalf("iteration %d: update diverges from encoding/json:\n%s\n%s", iter, gotU, wantU)
		}
	}
}

// TestSeriesTimeOutsideJSONRange: a point whose time encoding/json
// refuses answers 500 with encoding/json's message, as writeJSON did.
func TestSeriesTimeOutsideJSONRange(t *testing.T) {
	for _, ts := range []time.Time{time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(-1, 6, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2024, 6, 1, 0, 0, 0, 0, time.FixedZone("far", 25*3600))} {
		_, want := json.Marshal(ts)
		if _, err := appendJSONTime(nil, ts); want == nil || fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("%v: error %v, encoding/json's %v", ts, err, want)
		}
	}
	for _, ts := range []time.Time{time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), {}, time.Date(2024, 6, 1, 0, 0, 0, 5, time.FixedZone("x", 5400))} {
		want, _ := json.Marshal(ts)
		if got, err := appendJSONTime(nil, ts); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%v: %s, %v; encoding/json writes %s", ts, got, err, want)
		}
	}
}

// BenchmarkSeriesEncode is one grouped lake answer: 240 points, ten
// metrics over 24 buckets.
func BenchmarkSeriesEncode(b *testing.B) {
	f := schema.NewFrame(schema.New(schema.Field{Name: "ts", Kind: schema.KindTime},
		schema.Field{Name: "metric", Kind: schema.KindString}, schema.Field{Name: "value", Kind: schema.KindFloat}))
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 24; k++ {
		for m := 0; m < 10; m++ {
			row := schema.Row{schema.Time(t0.Add(time.Duration(k) * 15 * time.Minute)),
				schema.Str(fmt.Sprintf("metric_%02d", m)), schema.Float(100*float64(m) + rng.Float64()*50)}
			if err := f.AppendRow(row); err != nil {
				b.Fatal(err)
			}
		}
	}
	groupBy := []string{"metric"}
	b.Run("encoder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := newSeriesEncoder(f, groupBy).appendAll(seriesBuffer(f.Len())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reflection", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(refPoints(f, groupBy)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
