package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		n    int
		ok   bool
		want float64
	}{
		{0.95, 199, false, 0},
		{0.95, 200, true, 190},
		{0.95, 400, true, 380},
		{0.5, 19, false, 0},
		{0.5, 20, true, 10},
		{0.5, 21, true, 11},
		{0.99, 999, false, 0},
		{0.99, 1000, true, 990},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(%d samples, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileLeavesInputAlone(t *testing.T) {
	xs := seq(30)
	if _, ok := percentile(xs, 0.5); !ok {
		t.Fatal("p50 of 30 samples unreported")
	}
	if xs[0] != 30 || xs[29] != 1 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestMinSamplesMatchesPercentile(t *testing.T) {
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99} {
		n := minSamples(p)
		if _, ok := percentile(seq(n), p); !ok {
			t.Errorf("p%v: %d samples should report", p, n)
		}
		if _, ok := percentile(seq(n-1), p); ok {
			t.Errorf("p%v: %d samples should not report", p, n-1)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}
