//go:build !race

// The race detector's instrumentation allocates on its own, so allocation
// counts are only meaningful without it.

package byteslice_test

import (
	"testing"

	"byteslice"
)

// TestNativeFilterAllocs pins the heap allocations of a serial native
// single-predicate ByteSlice Filter. The native path never touches the
// modelled engine, so it must not build one (a cache-less perf.Profile
// plus a simd.Engine, two allocations per query).
func TestNativeFilterAllocs(t *testing.T) {
	vals := make([]int64, 1<<14)
	for i := range vals {
		vals[i] = int64(i % 1000)
	}
	tbl, err := byteslice.NewTable(intColumn(t, "v", vals, 0, 999))
	if err != nil {
		t.Fatal(err)
	}
	f := []byteslice.Filter{byteslice.IntFilter("v", byteslice.Lt, 100)}
	opts := []byteslice.QueryOption{byteslice.WithParallelism(1), byteslice.WithObservability(false)}
	const budget = 36
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := tbl.Filter(f, opts...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("native Filter allocated %.0f times per query, budget %d", allocs, budget)
	}
}
