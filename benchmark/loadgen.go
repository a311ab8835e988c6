package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// schedule is an open-loop send schedule: operation k is due at
// start + k×period whether or not earlier operations have completed, so
// a stall shows up as lateness and as latency measured from the due
// time, never as a lower offered rate.
type schedule struct {
	start  time.Time
	period time.Duration

	late *sample // actual send − due, per operation
}

func newSchedule(start time.Time, period time.Duration) *schedule {
	return &schedule{start: start, period: period, late: &sample{}}
}

func (s *schedule) due(k int) time.Time { return s.start.Add(time.Duration(k) * s.period) }

// wait blocks until operation k is due and records how late the
// generator actually is (0 when it woke on time or early).
func (s *schedule) wait(k int, now func() time.Time, sleep func(time.Duration)) time.Time {
	due := s.due(k)
	if d := due.Sub(now()); d > 0 {
		sleep(d)
	}
	late := now().Sub(due)
	if late < 0 {
		late = 0
	}
	s.late.add(late)
	return due
}

// offeredPerSecond is the rate the schedule actually offered: operations
// sent over the span from the first due time to the last send.
func (s *schedule) offeredPerSecond(sent int, lastSend time.Time) float64 {
	span := lastSend.Sub(s.start).Seconds() + s.period.Seconds()
	return ratio(float64(sent), span)
}

// freshness tracks event→queryable delay: marker k is published in the
// batch due at due[k]; a probe response reporting max marker m, received
// at time t, makes every marker ≤ m visible no later than t.
type freshness struct {
	due  []time.Time
	next int // lowest marker not yet seen
	lat  *sample
}

func newFreshness() *freshness { return &freshness{lat: &sample{}} }

func (f *freshness) published(due time.Time) { f.due = append(f.due, due) }

// observe credits every newly visible marker up to maxSeen (markers are
// numbered from 0; maxSeen < 0 means none visible yet).
func (f *freshness) observe(maxSeen int, at time.Time) {
	for f.next <= maxSeen && f.next < len(f.due) {
		f.lat.add(at.Sub(f.due[f.next]))
		f.next++
	}
}

// missing is how many published markers no probe ever saw.
func (f *freshness) missing() int { return len(f.due) - f.next }

// httpClient is one keep-alive connection to the gateway.
type httpClient struct {
	c    *http.Client
	base string
	buf  []byte
}

func newHTTPClient(base string) *httpClient {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &httpClient{c: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// response is what the harness keeps of one exchange.
type response struct {
	status  int
	body    []byte // valid until the next call on the same client
	latency time.Duration
	header  http.Header
}

// do issues one request as the bench tenant and reads the whole body;
// latency is first byte sent to last byte read, on the client's clock.
func (h *httpClient) do(method, path string) (response, error) {
	req, err := http.NewRequest(method, h.base+path, nil)
	if err != nil {
		return response{}, err
	}
	req.Header.Set("X-ODA-Tenant", tenantName)
	start := time.Now()
	resp, err := h.c.Do(req)
	if err != nil {
		return response{latency: time.Since(start)}, err
	}
	h.buf, err = readAllInto(h.buf[:0], resp.Body)
	resp.Body.Close()
	r := response{status: resp.StatusCode, body: h.buf, latency: time.Since(start), header: resp.Header}
	if err != nil {
		return r, fmt.Errorf("read body: %w", err)
	}
	return r, nil
}

func (h *httpClient) get(path string) (response, error) { return h.do(http.MethodGet, path) }

func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func headerInt(h http.Header, name string) int64 {
	v, _ := strconv.ParseInt(h.Get(name), 10, 64)
	return v
}
