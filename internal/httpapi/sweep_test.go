package httpapi

// Regression tests for the request-path bugfix sweep. Each test fails
// against the pre-fix parsers: inverted windows used to leak through to
// handlers that silently answered 200-with-nothing, and comma artifacts
// in dimension filters used to become empty-string filter values.

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestInvertedWindowRejected locks the bad-window fix on the routes that
// previously accepted from >= to and returned an empty 200: logs/search
// and rats/programs never consulted tsdb's validation, so an inverted
// window sailed through to an empty result instead of a client error.
func TestInvertedWindowRejected(t *testing.T) {
	srv, _ := testServer(t)
	inverted := "from=" + t0.Add(time.Hour).Format(time.RFC3339) + "&to=" + t0.Format(time.RFC3339)
	for _, path := range []string{
		"/api/v1/logs/search?" + inverted,
		"/api/v1/rats/programs?" + inverted,
		"/api/v1/lake/query?" + inverted,
		"/api/v1/lake/topn?metric=node_power_w&" + inverted,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), "bad window") {
			t.Fatalf("%s: body %q does not name the bad window", path, body)
		}
	}
}

// TestFilterCommaArtifacts locks the dimension-list fix: trailing or
// doubled commas must not become empty-string filter values. Post-fix, a
// trailing comma parses to the identical query — provable through the
// result cache: the second request hits the entry the first one stored.
// Pre-fix the empty string joined the filter list, producing a different
// cache fingerprint (and, for all-empty lists, a never-matching filter).
func TestFilterCommaArtifacts(t *testing.T) {
	srv, _ := testServer(t)
	window := "from=" + t0.Format(time.RFC3339) + "&to=" + t0.Add(time.Minute).Format(time.RFC3339)
	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}

	clean, cleanBody := get("/api/v1/lake/query?metric=node_power_w&agg=avg&" + window)
	if clean.StatusCode != 200 {
		t.Fatalf("clean query status = %d", clean.StatusCode)
	}
	comma, commaBody := get("/api/v1/lake/query?metric=node_power_w,&agg=avg&" + window)
	if comma.StatusCode != 200 {
		t.Fatalf("trailing-comma query status = %d", comma.StatusCode)
	}
	if commaBody != cleanBody {
		t.Fatalf("trailing comma changed the result:\n%s\nvs\n%s", commaBody, cleanBody)
	}
	if comma.Header.Get("X-ODA-Query-Cache") != "hit" {
		t.Fatalf("trailing-comma query missed the cache (cache=%q): empty value leaked into the filter",
			comma.Header.Get("X-ODA-Query-Cache"))
	}

	// All-empty filter lists are a client error, not an empty result.
	for _, path := range []string{
		"/api/v1/lake/query?metric=,&" + window,
		"/api/v1/lake/query?component=,,&" + window,
	} {
		resp, body := get(path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400 (body %q)", path, resp.StatusCode, body)
		}
	}

	// Doubled commas between real values are tolerated.
	resp, _ := get("/api/v1/lake/query?metric=node_power_w,,node_temp_c&agg=avg&" + window)
	if resp.StatusCode != 200 {
		t.Fatalf("doubled-comma list status = %d", resp.StatusCode)
	}

	// Top-N parses its metric list the same way: a trailing comma is the
	// same query, answered from the entry the clean one stored.
	cleanTop, cleanTopBody := get("/api/v1/lake/topn?metric=node_power_w&n=3&" + window)
	commaTop, commaTopBody := get("/api/v1/lake/topn?metric=node_power_w,&n=3&" + window)
	if cleanTop.StatusCode != 200 || commaTop.StatusCode != 200 {
		t.Fatalf("top-n status clean %d, trailing comma %d", cleanTop.StatusCode, commaTop.StatusCode)
	}
	if cleanTopBody == "[]\n" || commaTopBody != cleanTopBody {
		t.Fatalf("trailing comma changed the top-n answer:\n%s\nvs\n%s", commaTopBody, cleanTopBody)
	}
	if commaTop.Header.Get("X-ODA-Query-Cache") != "hit" {
		t.Fatalf("trailing-comma top-n missed the cache (cache=%q)", commaTop.Header.Get("X-ODA-Query-Cache"))
	}
}
