package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestQuantilesMatchPython pins the cut points to the values Python's
// statistics.quantiles (method "exclusive", its default) gives for the same
// inputs, so spreads printed here agree with ones computed in Python.
func TestQuantilesMatchPython(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	cases := []struct {
		values []float64
		n      int
		want   []float64
	}{
		{[]float64{1, 2, 3, 4}, 4, []float64{1.25, 2.5, 3.75}},
		{seq(10), 4, []float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1}, 4, []float64{0, 3, 6}},
		{[]float64{3, 1, 2}, 10, []float64{0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8, 3.2, 3.6}},
		{[]float64{0.9, 1.1, 1.0, 1.3, 0.95, 1.05, 1.2, 0.85, 1.15, 1.0}, 4, []float64{0.9375, 1.025, 1.1625}},
	}
	for _, c := range cases {
		got := quantiles(c.values, c.n)
		if len(got) != len(c.want) {
			t.Fatalf("quantiles(%v, %d) = %v, want %v", c.values, c.n, got, c.want)
		}
		for i := range got {
			if !near(got[i], c.want[i]) {
				t.Fatalf("quantiles(%v, %d) = %v, want %v", c.values, c.n, got, c.want)
			}
		}
	}
	if q := quantiles([]float64{7}, 4); q != nil {
		t.Fatalf("one value has no quartiles, got %v", q)
	}
}

func TestP90AndMedian(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[len(v)-1-i] = float64(i + 1) // unsorted input
	}
	if got := p90(v); !near(got, 90.9) {
		t.Fatalf("p90(1..100) = %v, want 90.9 (Python statistics.quantiles(n=10)[8])", got)
	}
	if got := median(v); !near(got, 50.5) {
		t.Fatalf("median(1..100) = %v, want 50.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median(3,1,2) = %v, want 2", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing must be NaN, not a number that reads as measured")
	}
}

func TestRelIQR(t *testing.T) {
	v := []float64{0.9, 1.1, 1.0, 1.3, 0.95, 1.05, 1.2, 0.85, 1.15, 1.0}
	want := (1.1625 - 0.9375) / 1.025
	if got := relIQR(v); !near(got, want) {
		t.Fatalf("relIQR = %v, want %v", got, want)
	}
	if got := relIQR([]float64{4, 4, 4}); got != 0 {
		t.Fatalf("relIQR of constant values = %v, want 0", got)
	}
	if got := relIQR([]float64{-1, 0, 1}); !math.IsInf(got, 1) {
		t.Fatalf("relIQR around a zero median = %v, want +Inf", got)
	}
}

// TestLowestWindow checks that a phase files each whole pass under the
// time window it ended in and reports its least disturbed window.
func TestLowestWindow(t *testing.T) {
	p := newPhase(time.Hour, 4)
	pass := func(n int, d time.Duration, at time.Duration) {
		for i := 0; i < n; i++ {
			p.addMain(d)
			p.addAlt(d / 2)
		}
		p.addBatch(100 * d)
		p.start = time.Now().Add(-at) // the pass ends at offset at
		p.deadline = p.start.Add(time.Hour)
		p.endPass()
	}
	pass(50, 10*time.Millisecond, 5*time.Minute)
	pass(50, 12*time.Millisecond, 10*time.Minute) // same window: p50 11
	pass(50, 6*time.Millisecond, 20*time.Minute)  // a quiet window
	pass(50, 9*time.Millisecond, 2*time.Hour)     // past the deadline: last window
	for i := 0; i < 10; i++ {
		p.addMain(time.Millisecond) // a pass cut short: whole-run series only
	}
	if got := p.perWindow(mainSeries, median); !slices.Equal(got, []float64{11, 6, 9}) {
		t.Fatalf("per-window main p50 = %v, want [11 6 9] (empty window skipped)", got)
	}
	if got := p.mainP50(); got != 6 {
		t.Fatalf("main p50 = %v ms, want the quiet window's 6", got)
	}
	if got := p.altP50(); got != 3 {
		t.Fatalf("alt p50 = %v ms, want 3", got)
	}
	if got := p.batchS(); !near(got, 0.6) {
		t.Fatalf("batch = %v s, want 0.6", got)
	}
	if got := len(p.main); got != 210 {
		t.Fatalf("whole-run series lost samples: %d", got)
	}
	if !math.IsNaN(newPhase(time.Second, 3).mainP50()) {
		t.Fatal("a phase without a complete pass must not read as measured")
	}
}
