package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"odakit/internal/core"
	"odakit/internal/schema"
	"odakit/internal/telemetry"
)

// cqTestServer is testServer plus a drained CQ pump: bronze records the
// ingest published are folded into every registered view.
func cqDrain(t *testing.T, f *core.Facility) {
	t.Helper()
	p, err := f.NewCQPump("", telemetry.SourcePowerTemp)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

type cqPoint struct {
	Ts    time.Time         `json:"ts"`
	Dims  map[string]string `json:"dims"`
	Value float64           `json:"value"`
}

func TestCQRegisterReadMatchesLake(t *testing.T) {
	srv, f := testServer(t)

	// Register BEFORE the pump drains, so the view sees every record.
	var reg struct {
		ID  string `json:"id"`
		Agg string `json:"agg"`
	}
	regURL := srv.URL + "/api/v1/cq?window=5m&metric=node_power_w&groupby=component&granularity=15s&agg=avg&name=power"
	resp, err := http.Post(regURL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || reg.ID == "" {
		t.Fatalf("register: status %d id %q", resp.StatusCode, reg.ID)
	}
	// Re-registering the same shape under a different name: same ID.
	resp, err = http.Post(srv.URL+"/api/v1/cq?window=5m&metric=node_power_w&groupby=component&granularity=15s&agg=avg&name=other", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var reg2 struct {
		ID string `json:"id"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&reg2)
	resp.Body.Close()
	if reg2.ID != reg.ID {
		t.Fatalf("content addressing broken: %q vs %q", reg2.ID, reg.ID)
	}

	cqDrain(t, f)

	resp, err = http.Get(srv.URL + "/api/v1/cq/" + reg.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("read: status %d", resp.StatusCode)
	}
	for _, h := range []string{"X-ODA-CQ-Gen", "X-ODA-CQ-Cache", "X-ODA-CQ-Cells",
		"X-ODA-CQ-Watermark", "X-ODA-CQ-Window-From", "X-ODA-CQ-Window-To"} {
		if resp.Header.Get(h) == "" {
			t.Fatalf("missing header %s", h)
		}
	}
	var got []cqPoint
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("view is empty after drain")
	}

	// The same window as a batch lake query must agree (values within
	// float tolerance: the lake ingested the records in batch-arrival
	// order, the view in partition order, so sums may differ in the
	// last ulps).
	from, _ := time.Parse(time.RFC3339Nano, resp.Header.Get("X-ODA-CQ-Window-From"))
	to, _ := time.Parse(time.RFC3339Nano, resp.Header.Get("X-ODA-CQ-Window-To"))
	lakeURL := fmt.Sprintf(
		"%s/api/v1/lake/query?metric=node_power_w&groupby=component&granularity=15s&agg=avg&from=%s&to=%s",
		srv.URL, from.Format(time.RFC3339), to.Format(time.RFC3339))
	var want []cqPoint
	if code := getJSON(t, lakeURL, &want); code != 200 {
		t.Fatalf("lake query: status %d", code)
	}
	if len(got) != len(want) {
		t.Fatalf("view has %d points, lake %d", len(got), len(want))
	}
	key := func(p cqPoint) string { return p.Ts.Format(time.RFC3339) + "|" + p.Dims["component"] }
	lake := map[string]float64{}
	for _, p := range want {
		lake[key(p)] = p.Value
	}
	for _, p := range got {
		w, ok := lake[key(p)]
		if !ok {
			t.Fatalf("view point %s not in lake answer", key(p))
		}
		if math.Abs(p.Value-w) > 1e-9*math.Max(1, math.Abs(w)) {
			t.Fatalf("point %s: view %v, lake %v", key(p), p.Value, w)
		}
	}

	// A second read at the same generation is a cache hit.
	resp, err = http.Get(srv.URL + "/api/v1/cq/" + reg.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-ODA-CQ-Cache") != "hit" {
		t.Fatalf("second read: cache %q, want hit", resp.Header.Get("X-ODA-CQ-Cache"))
	}

	// Listing shows the view.
	var list []struct {
		ID string `json:"id"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/cq", &list); code != 200 || len(list) != 1 || list[0].ID != reg.ID {
		t.Fatalf("list = %v", list)
	}
}

func TestCQBadRequestsAndNotFound(t *testing.T) {
	srv, _ := testServer(t)
	for name, q := range map[string]string{
		"missing window": "metric=node_power_w",
		"bad window":     "window=banana",
		"bad kind":       "window=1m&kind=hopping",
		"bad agg":        "window=1m&agg=median",
		"bad groupby":    "window=1m&groupby=rack",
		"dup window":     "window=1m&window=2m",
		"bad above":      "window=1m&above=x",
		"bad season":     "window=1m&season=1",
		"NaN above":      "window=1m&above=NaN",
		"Inf below":      "window=1m&below=Inf",
		"NaN maxscore":   "window=1m&maxscore=NaN",
	} {
		resp, err := http.Post(srv.URL+"/api/v1/cq?"+q, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	for _, path := range []string{"/api/v1/cq/cqdead", "/api/v1/cq/cqdead/alerts", "/api/v1/cq/cqdead/watch"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || resp.Header.Get("X-ODA-Error") != "not-found" {
			t.Errorf("%s: status %d X-ODA-Error %q", path, resp.StatusCode, resp.Header.Get("X-ODA-Error"))
		}
	}
}

func TestCQDelete(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Post(srv.URL+"/api/v1/cq?window=1m", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		ID string `json:"id"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&reg)
	resp.Body.Close()
	del := func() int {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/v1/cq/"+reg.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(); code != 200 {
		t.Fatalf("delete: status %d", code)
	}
	if code := del(); code != 404 {
		t.Fatalf("double delete: status %d, want 404", code)
	}
}

func TestCQAlertsEndpoint(t *testing.T) {
	srv, f := testServer(t)
	resp, err := http.Post(srv.URL+"/api/v1/cq?window=5m&groupby=component&above=0&name=any", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		ID string `json:"id"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&reg)
	resp.Body.Close()
	// Positive power values with above=0: every closed bucket alerts.
	for i := 0; i < 8; i++ {
		f.CQ.Apply("bronze.power_temp", 0, []schema.Observation{{
			Ts: t0.Add(time.Duration(i) * 15 * time.Second), System: "sys",
			Source: "power_temp", Component: "n1", Metric: "node_power_w", Value: 100,
		}})
	}
	var alerts []struct {
		Value  float64 `json:"value"`
		Reason string  `json:"reason"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/cq/"+reg.ID+"/alerts", &alerts); code != 200 {
		t.Fatalf("alerts: status %d", code)
	}
	if len(alerts) == 0 {
		t.Fatal("no alerts for always-above threshold")
	}
	if alerts[0].Reason == "" || alerts[0].Value != 100 {
		t.Fatalf("alert = %+v", alerts[0])
	}
}

func TestCQWatchSSE(t *testing.T) {
	srv, f := testServer(t)
	resp, err := http.Post(srv.URL+"/api/v1/cq?window=5m&groupby=component&agg=max", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		ID string `json:"id"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&reg)
	resp.Body.Close()

	apply := func(sec int, val float64) {
		f.CQ.Apply("bronze.power_temp", 0, []schema.Observation{{
			Ts: t0.Add(time.Duration(sec) * time.Second), System: "sys",
			Source: "power_temp", Component: "n1", Metric: "node_power_w", Value: val,
		}})
	}
	apply(0, 100)

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/v1/cq/"+reg.ID+"/watch?count=2", nil)
	req.Header.Set("Accept", "text/event-stream")
	watch, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()
	if ct := watch.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// The first event arrives immediately with the current state; the
	// second only after another apply bumps the generation.
	done := make(chan error, 1)
	var events []cqEvent
	go func() {
		evs, err := readSSE(watch.Body, 2)
		events = evs
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	apply(15, 200)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SSE events did not arrive")
	}
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].Data.Gen >= events[1].Data.Gen {
		t.Fatalf("generations not increasing: %d then %d", events[0].Data.Gen, events[1].Data.Gen)
	}
	if len(events[1].Data.Points) == 0 {
		t.Fatal("update event carries no points")
	}
	max := 0.0
	for _, p := range events[1].Data.Points {
		max = math.Max(max, p.Value)
	}
	if max != 200 {
		t.Fatalf("latest window max = %v, want 200", max)
	}
}

type cqEvent struct {
	Event string
	ID    string
	Data  struct {
		Gen    uint64    `json:"gen"`
		Points []cqPoint `json:"points"`
	}
}

// readSSE parses n `event:`/`id:`/`data:` frames off a live stream.
func readSSE(r interface{ Read([]byte) (int, error) }, n int) ([]cqEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []cqEvent
	var cur cqEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Event = line[7:]
		case strings.HasPrefix(line, "id: "):
			cur.ID = line[4:]
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[6:]), &cur.Data); err != nil {
				return out, err
			}
		case line == "":
			if cur.Event != "" {
				out = append(out, cur)
				cur = cqEvent{}
				if len(out) == n {
					return out, nil
				}
			}
		}
	}
	return out, fmt.Errorf("stream ended after %d events: %v", len(out), sc.Err())
}

func TestCQLongPoll(t *testing.T) {
	srv, f := testServer(t)
	resp, err := http.Post(srv.URL+"/api/v1/cq?window=5m&groupby=component", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		ID string `json:"id"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&reg)
	resp.Body.Close()
	watchURL := srv.URL + "/api/v1/cq/" + reg.ID + "/watch"

	// No gen param: answers immediately like a read.
	resp, err = http.Get(watchURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	gen := resp.Header.Get("X-ODA-CQ-Gen")
	if resp.StatusCode != 200 || gen == "" {
		t.Fatalf("immediate poll: status %d gen %q", resp.StatusCode, gen)
	}

	// Same gen + short wait, no updates: times out with the marker.
	start := time.Now()
	resp, err = http.Get(watchURL + "?gen=" + gen + "&wait=80ms")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-ODA-CQ-Timeout") != "true" {
		t.Fatalf("expected timeout marker, headers %v", resp.Header)
	}
	if time.Since(start) < 60*time.Millisecond {
		t.Fatal("long poll returned before the wait elapsed")
	}

	// An update releases a parked poll promptly.
	type pollResult struct {
		gen  string
		code int
	}
	got := make(chan pollResult, 1)
	go func() {
		resp, err := http.Get(watchURL + "?gen=" + gen + "&wait=5s")
		if err != nil {
			got <- pollResult{}
			return
		}
		resp.Body.Close()
		got <- pollResult{gen: resp.Header.Get("X-ODA-CQ-Gen"), code: resp.StatusCode}
	}()
	time.Sleep(50 * time.Millisecond)
	f.CQ.Apply("bronze.power_temp", 0, []schema.Observation{{
		Ts: t0, System: "sys", Source: "power_temp",
		Component: "n1", Metric: "node_power_w", Value: 1,
	}})
	select {
	case r := <-got:
		if r.code != 200 || r.gen == gen || r.gen == "" {
			t.Fatalf("released poll: code %d gen %q (was %q)", r.code, r.gen, gen)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("long poll not released by update")
	}
}
