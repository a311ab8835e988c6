package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on, or by an explicit stall.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestScheduleDueTimesIgnoreStalls(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	s := newSchedule(start, 100*time.Millisecond)

	// Operation 0: on time.
	if due := s.wait(0, clk.Now, clk.Sleep); !due.Equal(start) {
		t.Fatalf("due(0) = %v, want %v", due, start)
	}
	// The system stalls 250 ms while serving operation 0: operations 1
	// and 2 are already overdue when the generator gets back, but their
	// due times do not move — latency is charged from them.
	clk.now = clk.now.Add(250 * time.Millisecond)
	if due := s.wait(1, clk.Now, clk.Sleep); !due.Equal(start.Add(100 * time.Millisecond)) {
		t.Fatalf("due(1) moved to %v", due)
	}
	if due := s.wait(2, clk.Now, clk.Sleep); !due.Equal(start.Add(200 * time.Millisecond)) {
		t.Fatalf("due(2) moved to %v", due)
	}
	// Operation 3 is still in the future: the generator sleeps to it.
	if due := s.wait(3, clk.Now, clk.Sleep); !clk.now.Equal(due) {
		t.Fatalf("generator woke at %v for an operation due %v", clk.now, due)
	}
	want := []float64{0, 150, 50, 0} // ms late per operation
	if len(s.late.ms) != len(want) {
		t.Fatalf("recorded %d lateness samples, want %d", len(s.late.ms), len(want))
	}
	for i, w := range want {
		if s.late.ms[i] != w {
			t.Errorf("late[%d] = %v ms, want %v", i, s.late.ms[i], w)
		}
	}
	// Offered rate is what was sent over the scheduled span, stall or not.
	if got := s.offeredPerSecond(4, clk.now); got != 10 {
		t.Errorf("offeredPerSecond = %v, want 10", got)
	}
}

func TestFreshnessCreditsEveryNewlyVisibleMarker(t *testing.T) {
	f := newFreshness()
	base := time.Unix(2000, 0)
	for k := 0; k < 5; k++ {
		f.published(base.Add(time.Duration(k) * 100 * time.Millisecond))
	}
	f.observe(-1, base.Add(10*time.Millisecond)) // nothing visible yet
	if f.lat.n() != 0 {
		t.Fatalf("credited %d markers before any was visible", f.lat.n())
	}
	// A probe at +250 ms sees marker 2: markers 0, 1, 2 become visible.
	f.observe(2, base.Add(250*time.Millisecond))
	// An older answer arriving later must not re-credit or un-credit.
	f.observe(1, base.Add(300*time.Millisecond))
	f.observe(3, base.Add(420*time.Millisecond))
	want := []float64{250, 150, 50, 120}
	if f.lat.n() != len(want) {
		t.Fatalf("credited %d markers, want %d", f.lat.n(), len(want))
	}
	for i, w := range want {
		if f.lat.ms[i] != w {
			t.Errorf("freshness[%d] = %v ms, want %v", i, f.lat.ms[i], w)
		}
	}
	if f.missing() != 1 {
		t.Errorf("missing = %d, want 1 (marker 4 never seen)", f.missing())
	}
	// A response claiming a marker beyond what was published is clamped.
	f.observe(99, base.Add(time.Second))
	if f.missing() != 0 || f.lat.n() != 5 {
		t.Errorf("after seeing everything: missing %d, samples %d", f.missing(), f.lat.n())
	}
}

func TestMaxMarker(t *testing.T) {
	for _, tc := range []struct {
		body string
		want int
	}{
		{`[]`, -1},
		{`[{"ts":"2024-06-01T00:00:00Z","value":7}]`, 7},
		{`[{"value":3},{"value":12},{"value":5}]`, 12},
	} {
		got, err := maxMarker([]byte(tc.body))
		if err != nil || got != tc.want {
			t.Errorf("maxMarker(%s) = %d, %v; want %d", tc.body, got, err, tc.want)
		}
	}
	if _, err := maxMarker([]byte(`{"error":"x"}`)); err == nil {
		t.Error("maxMarker accepted an error envelope")
	}
}
