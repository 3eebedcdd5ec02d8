package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3}); got != 3 {
		t.Errorf("median of one sample = %v, want 3", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %v, want NaN", got)
	}
}

func TestSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{1000, 0.99, 10}, {999, 0.99, 9}, {100, 0.99, 1}, {2000, 0.5, 1000}, {0, 0.99, 0}} {
		if got := samplesBeyond(c.n, c.q); got != c.want {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	// The p99 of minBeyond·100 samples is the first with enough samples
	// beyond it.
	if samplesBeyond(minBeyond*100, 0.99) < minBeyond || samplesBeyond(minBeyond*100-1, 0.99) >= minBeyond {
		t.Errorf("p99 needs %d samples to have %d beyond it", minBeyond*100, minBeyond)
	}
}

func TestScaled(t *testing.T) {
	got := scaled([]int64{1_500_000, 2_000_000}, 1e6)
	if got[0] != 1.5 || got[1] != 2 {
		t.Errorf("scaled ns to ms = %v, want [1.5 2]", got)
	}
}
