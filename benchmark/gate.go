package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"
)

// batchFn regenerates batch k of a workload's write stream.
type batchFn func(k int, dst []observation) (topic string, obs []observation)

// gateIngest is the correctness gate of the writing workloads, run
// outside every timed region: the pump is drained, then
//
//	(a) the sum of committed end offsets equals the records acked
//	    (STREAM holds every record exactly once),
//	(b) the lake's total observation count equals the records acked, and
//	    on the first, middle and last laps of the run the plane's lake
//	    answers byte-identically to a single-node tsdb.DB fed the same
//	    observations,
//	(c) every standing view reads byte-identically to the equivalent
//	    batch query over the window it answered for.
//
// The reference is fed whole laps, not the whole run: a lap is the unit
// whose observations no other lap's window can contain, so the
// comparison is exact while the gate's memory stays a few laps' worth
// instead of doubling the lake. It returns one message per mismatch;
// empty means the gate passed.
func gateIngest(p *plane, gen batchFn, lapLen, batches int, acked int64) []string {
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	if batches == 0 {
		return []string{"no batches were sent"}
	}
	if err := p.drainPump(); err != nil {
		fail("drain pump: %v", err)
	}
	if end, err := p.endOffsets(); err != nil {
		fail("end offsets: %v", err)
	} else if end != acked {
		fail("exactly-once: stream holds %d records, %d were acked", end, acked)
	}

	laps := (batches + lapLen - 1) / lapLen
	total := query{From: t0, To: t0.Add(time.Duration(laps+1) * lapSpan), Agg: aggCount}
	if fr, _, err := p.run(total); err != nil {
		fail("lake count query: %v", err)
	} else if n := frameTotal(fr); n != float64(acked) {
		fail("lake holds %.0f observations, %d were acked", n, acked)
	}

	probe := map[int]bool{0: true, laps / 2: true, laps - 1: true}
	if laps > 1 {
		probe[laps-2] = true // the last lap the run completed
	}
	ref := newReferenceLake()
	var obs []observation
	for k := 0; k < batches; k++ {
		if !probe[k/lapLen] {
			continue
		}
		_, obs = gen(k, obs)
		if err := ref.insert(obs); err != nil {
			fail("reference insert: %v", err)
			return errs
		}
	}
	for _, lap := range sortedInts(probe) {
		for _, q := range gateQueries(lap) {
			got, _, err := p.run(q)
			if err != nil {
				fail("plane query %s: %v", queryName(q), err)
				continue
			}
			want, err := ref.run(q)
			if err != nil {
				fail("reference query %s: %v", queryName(q), err)
				continue
			}
			if frameLen(want) == 0 && lap < laps-1 {
				fail("reference is empty on lap %d: the gate would compare nothing", lap)
			}
			if !framesEqual(got, want) {
				fail("lake != single-node reference on lap %d, %s (%d vs %d rows)",
					lap, queryName(q), frameLen(got), frameLen(want))
			}
		}
	}
	for _, v := range p.views() {
		fr, info, _ := readView(v)
		got, _, err := p.run(viewQuery(v, info))
		if err != nil {
			fail("view %s batch query: %v", v.Spec.Name, err)
			continue
		}
		if !framesEqual(fr, got) {
			fail("view %s != batch query over its window (%d vs %d rows)", v.Spec.Name, frameLen(fr), frameLen(got))
		}
	}
	return errs
}

// gateQueries is the probe set of gate (b) on one lap: the lap grouped by
// component, grouped by metric without a filter, and a filtered slice at
// rollup granularity — between them every aggregation path (filtered,
// unfiltered, coarse and cell-exact buckets) is compared. The window
// stops one rollup bucket short of each lap edge: sample jitter lets a
// neighbouring lap's records spill a fraction of a second across.
func gateQueries(lap int) []query {
	from := t0.Add(time.Duration(lap)*lapSpan + rollup)
	to := t0.Add(time.Duration(lap+1)*lapSpan - rollup)
	return []query{
		{From: from, To: to, Filters: map[string][]string{"metric": {metricPower}},
			GroupBy: []string{"component"}, Granularity: time.Minute},
		{From: from, To: to, GroupBy: []string{"metric"}, Granularity: time.Minute, Agg: aggMax},
		{From: from, To: to, Filters: map[string][]string{"component": {"node00001", "node00002", "node00003.gpu1"}},
			GroupBy: []string{"component", "metric"}, Granularity: rollup, Agg: aggSum},
	}
}

func sortedInts(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// gateHTTP is gate (d): for a fixed probe set, the body read off the
// socket (through the gateway) equals the bare handler's in-process
// answer byte for byte.
func gateHTTP(p *plane, paths []string) []string {
	var errs []string
	c := newHTTPClient(p.baseURL)
	defer c.close()
	for _, path := range paths {
		resp, err := c.get(path)
		if err != nil {
			errs = append(errs, fmt.Sprintf("GET %s: %v", path, err))
			continue
		}
		if resp.status != http.StatusOK {
			errs = append(errs, fmt.Sprintf("GET %s: status %d", path, resp.status))
			continue
		}
		rec := serveInProcess(p.apiHandler(), path)
		if !bytes.Equal(resp.body, rec.Body.Bytes()) {
			errs = append(errs, fmt.Sprintf("GET %s: socket body (%d B) != in-process body (%d B)",
				path, len(resp.body), rec.Body.Len()))
		}
	}
	return errs
}

// serveInProcess replays a GET against a handler with a recorder — the
// null-socket path gateway.RunLoad measures, used here only as the
// subtrahend of the wire and gateway overheads and as the gate's oracle.
func serveInProcess(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("X-ODA-Tenant", tenantName)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}
