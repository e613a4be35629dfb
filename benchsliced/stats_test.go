package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n       int
		p       float64
		want    float64
		beyond  int
		enough  bool // at least minBeyond samples beyond
		comment string
	}{
		{100, 50, 50, 50, true, "median of 1..100"},
		{100, 99, 99, 1, false, "100 samples cannot support a p99"},
		{1000, 99, 990, 10, true, "1000 samples leave exactly 10 beyond p99"},
		{999, 99, 990, 9, false, "one short of the rule"},
		{10, 100, 10, 0, false, "p100 is the maximum"},
		{1, 99, 1, 0, false, "single sample"},
		{7, 50, 4, 3, false, "odd count"},
	} {
		v, beyond := nearestRank(seq(tc.n), tc.p)
		if v != tc.want || beyond != tc.beyond {
			t.Errorf("%s: nearestRank(n=%d, p=%v) = %v, %d beyond; want %v, %d", tc.comment, tc.n, tc.p, v, beyond, tc.want, tc.beyond)
		}
		if got := beyond >= minBeyond; got != tc.enough {
			t.Errorf("%s: enough samples beyond = %v, want %v", tc.comment, got, tc.enough)
		}
	}
}

func TestP99SelfCheck(t *testing.T) {
	for _, tc := range []struct {
		n    int
		fail bool
	}{{999, true}, {1000, false}} {
		lr := &liveRun{wl: wlHot, lat: seq(tc.n), before: metrics{}, after: metrics{"jumpslice_cache_hits_total": 1}}
		drift := lr.selfChecks()
		if got := len(drift) > 0; got != tc.fail {
			t.Errorf("n=%d: self-checks %v, want failure %v", tc.n, drift, tc.fail)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
}
