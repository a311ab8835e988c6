package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"odakit/internal/schema"
)

func postPrepare(t *testing.T, base, params string) preparedInfo {
	t.Helper()
	resp, err := http.Post(base+"/api/v1/prepare?"+params, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("prepare %q: status %d, body %s", params, resp.StatusCode, body)
	}
	var info preparedInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func getRaw(t *testing.T, u string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestPreparedMatchesAdhoc is the byte-identity property: for every
// parameter shape, executing a prepared handle streams exactly the bytes
// the ad-hoc endpoint encodes in one pass — same body, same content
// type, including the empty result.
func TestPreparedMatchesAdhoc(t *testing.T) {
	srv, _ := testServer(t)
	window := "from=" + url.QueryEscape(t0.Format(time.RFC3339)) +
		"&to=" + url.QueryEscape(t0.Add(time.Minute).Format(time.RFC3339))
	shapes := []string{
		"metric=node_power_w&agg=avg&granularity=15s&" + window,
		"metric=node_power_w&groupby=component&agg=max&" + window,
		"metric=node_power_w,node_temp_c&agg=sum&granularity=30s&" + window,
		"metric=node_power_w&" + window,
		"metric=no_such_metric&" + window, // empty result
	}
	for _, params := range shapes {
		adhoc, adhocBody := getRaw(t, srv.URL+"/api/v1/lake/query?"+params)
		if adhoc.StatusCode != 200 {
			t.Fatalf("ad-hoc %q: status %d", params, adhoc.StatusCode)
		}
		info := postPrepare(t, srv.URL, params)
		prep, prepBody := getRaw(t, srv.URL+"/api/v1/query?prep="+info.Handle)
		if prep.StatusCode != 200 {
			t.Fatalf("prepared %q: status %d, body %s", params, prep.StatusCode, prepBody)
		}
		if string(prepBody) != string(adhocBody) {
			t.Fatalf("prepared response diverged for %q:\nprepared: %q\nad-hoc:   %q",
				params, prepBody, adhocBody)
		}
		if pt, at := prep.Header.Get("Content-Type"), adhoc.Header.Get("Content-Type"); pt != at {
			t.Fatalf("content type diverged: %q vs %q", pt, at)
		}
	}
}

// TestPreparedWindowOverride rebinds from/to at execution time and
// checks the result matches an ad-hoc query over the override window.
func TestPreparedWindowOverride(t *testing.T) {
	srv, _ := testServer(t)
	base := "metric=node_power_w&agg=avg&granularity=15s"
	info := postPrepare(t, srv.URL, base+
		"&from="+url.QueryEscape(t0.Format(time.RFC3339))+
		"&to="+url.QueryEscape(t0.Add(2*time.Minute).Format(time.RFC3339)))
	over := "from=" + url.QueryEscape(t0.Format(time.RFC3339)) +
		"&to=" + url.QueryEscape(t0.Add(30*time.Second).Format(time.RFC3339))
	_, adhocBody := getRaw(t, srv.URL+"/api/v1/lake/query?"+base+"&"+over)
	prep, prepBody := getRaw(t, srv.URL+"/api/v1/query?prep="+info.Handle+"&"+over)
	if prep.StatusCode != 200 {
		t.Fatalf("override execution: status %d", prep.StatusCode)
	}
	if string(prepBody) != string(adhocBody) {
		t.Fatalf("override window diverged:\nprepared: %q\nad-hoc:   %q", prepBody, adhocBody)
	}
	// An inverted override is rejected like everywhere else.
	resp, _ := getRaw(t, srv.URL+"/api/v1/query?prep="+info.Handle+
		"&from="+url.QueryEscape(t0.Add(time.Hour).Format(time.RFC3339))+
		"&to="+url.QueryEscape(t0.Format(time.RFC3339)))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inverted override: status %d, want 400", resp.StatusCode)
	}
}

// TestPrepareContentAddressed: preparing the same logical query twice —
// even with filter values reordered — yields the same handle; different
// queries yield different handles.
func TestPrepareContentAddressed(t *testing.T) {
	srv, _ := testServer(t)
	a := postPrepare(t, srv.URL, "metric=node_power_w,node_temp_c&agg=avg")
	b := postPrepare(t, srv.URL, "metric=node_temp_c,node_power_w&agg=avg")
	if a.Handle != b.Handle {
		t.Fatalf("reordered filter values changed the handle: %s vs %s", a.Handle, b.Handle)
	}
	c := postPrepare(t, srv.URL, "metric=node_power_w&agg=sum")
	if c.Handle == a.Handle {
		t.Fatalf("distinct queries share handle %s", c.Handle)
	}
}

// TestPrepareValidates: prepare applies the same 400-contract as the
// ad-hoc path, so a handle can never hold an invalid query.
func TestPrepareValidates(t *testing.T) {
	srv, _ := testServer(t)
	for _, params := range []string{
		"agg=median", "granularity=-15s", "metric=,,", "agg=avg&agg=sum",
		"from=2024-06-01T01:00:00Z&to=2024-06-01T00:00:00Z",
	} {
		resp, err := http.Post(srv.URL+"/api/v1/prepare?"+params, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("prepare %q: status %d, want 400", params, resp.StatusCode)
		}
		if resp.Header.Get("X-ODA-Error") != "bad-request" {
			t.Fatalf("prepare %q: X-ODA-Error = %q", params, resp.Header.Get("X-ODA-Error"))
		}
	}
}

// TestStreamPointsFlushes drives the streaming encoder directly: output
// bytes must match one-shot encoding exactly, and bodies larger than the
// flush interval must flush mid-stream so clients see early chunks.
func TestStreamPointsFlushes(t *testing.T) {
	f := schema.NewFrame(schema.New(schema.Field{Name: "ts", Kind: schema.KindTime}, schema.Field{Name: "value", Kind: schema.KindFloat}))
	for i := 0; i < streamFlushEvery*2+7; i++ {
		if err := f.AppendRow(schema.Row{schema.Time(t0.Add(time.Duration(i) * time.Second)), schema.Float(float64(i) / 3)}); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	streamSeries(rec, f, nil)
	want, err := json.Marshal(refPoints(f, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != string(want)+"\n" {
		t.Fatalf("streamed bytes diverge from one-shot encoding (%d vs %d bytes)",
			len(got), len(want)+1)
	}
	if !rec.Flushed {
		t.Fatal("large stream never flushed")
	}

	rec = httptest.NewRecorder()
	streamSeries(rec, schema.NewFrame(f.Schema()), nil)
	if rec.Body.String() != "[]\n" {
		t.Fatalf("empty stream = %q, want []\\n", rec.Body.String())
	}
}
