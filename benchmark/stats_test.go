package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentilePicksHighestWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {39, 50}, // p75 needs 40 samples for 10 beyond
		{40, 75}, {99, 75},
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 95}, {1_000_000, 95}, // capped: p99 is not gated
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSampleTailReportsPickedPercentile(t *testing.T) {
	s := &sample{}
	for i := 1; i <= 2000; i++ {
		s.add(time.Duration(i) * time.Millisecond)
	}
	v, pct := s.tail()
	if pct != 95 {
		t.Errorf("tail picked p%v, want p95", pct)
	}
	if math.Abs(v-1900.05) > 0.01 {
		t.Errorf("p95 of 1..2000 ms = %v, want 1900.05", v)
	}
	few := &sample{}
	for i := 1; i <= 83; i++ { // live_dashboard: one freshness sample per batch
		few.add(time.Duration(i) * time.Millisecond)
	}
	if _, pct := few.tail(); pct != 75 {
		t.Errorf("83 samples: tail picked p%v, want p75", pct)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	for _, tc := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {100, 40}, {75, 32.5}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of empty sample = %v, want 0", got)
	}
}

// The driver judges spread with Python's statistics.quantiles(v, n=4);
// these expectations were computed with it.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v, %v; want 1, 3", q1, q3)
	}
	q1, q3 = quartiles([]float64{5, 9})
	if q1 != 4 || q3 != 10 { // python extrapolates: 5-0.25*4, 5+1.25*4
		t.Errorf("quartiles(5,9) = %v, %v; want 4, 10", q1, q3)
	}
}
