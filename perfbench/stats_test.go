package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
	}{
		{20, 0.5, 10},     // exactly ten beyond the median
		{21, 0.5, 11},     // odd count: the middle value
		{1000, 0.99, 990}, // exactly ten beyond p99
		{1500, 0.99, 1485},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.q)
		if err != nil {
			t.Errorf("p%g of %d: %v", 100*c.q, c.n, err)
			continue
		}
		if got != c.want {
			t.Errorf("p%g of %d = %g, want %g", 100*c.q, c.n, got, c.want)
		}
	}
}

func TestPercentileSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n int
		q float64
	}{
		{19, 0.5},   // nine beyond the median
		{999, 0.99}, // nine beyond p99
		{0, 0.5},
		{100, 0},
		{100, 1},
	} {
		if v, err := percentile(seq(c.n), c.q); err == nil {
			t.Errorf("p%g of %d samples = %g, want a refusal", 100*c.q, c.n, v)
		}
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %g", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %g", got)
	}
}

func TestWindowedMean(t *testing.T) {
	// Five windows of two and a dropped partial one; the stall in the
	// fourth window lifts the plain mean above 9 but not the median window.
	xs := []float64{1, 2, 1, 2, 1, 2, 1, 82, 1, 2, 7}
	if got := windowedMean(xs, 2); got != 1.5 {
		t.Errorf("windowed mean = %g, want 1.5", got)
	}
	if got := windowedMean(xs[:10], 10); got != mean(xs[:10]) {
		t.Errorf("one window = %g, want the plain mean %g", got, mean(xs[:10]))
	}
	if got := windowedMean([]float64{1, 5}, 4); got != 3 {
		t.Errorf("fewer samples than a window = %g, want the plain mean 3", got)
	}
}

func sp(start, end int64) span { return span{Start: start, End: end} }

func TestSelfTime(t *testing.T) {
	parent := sp(100, 200)
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(110, 120), sp(150, 170)}, 70},
		{"overlapping children count once", []span{sp(110, 140), sp(130, 160)}, 50},
		{"nested child", []span{sp(110, 190), sp(120, 130)}, 20},
		{"clipped to the parent", []span{sp(50, 120), sp(180, 260)}, 60},
		{"outside the parent", []span{sp(0, 100), sp(200, 300)}, 100},
		{"covers the parent", []span{sp(0, 300)}, 0},
		{"touching intervals", []span{sp(100, 150), sp(150, 200)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != time.Duration(c.want) {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestModelledChildrenLeaveOverheadAsSelfTime(t *testing.T) {
	// A request that took 5 ms of wall time, of which the processes slept
	// 0.02 × 200 ms = 4 ms on the cost model, has 1 ms of software.
	s := span{Start: 0, End: int64(5 * time.Millisecond),
		Split: &modelSplit{Device: 0.05, Uplink: 0.05, Queue: 0.02, Server: 0.08}}
	got := selfTime(s, s.children(0.02))
	if d := got - time.Millisecond; d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("self time %v, want 1ms", got)
	}
}
