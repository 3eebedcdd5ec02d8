package kernel

import (
	"testing"

	"byteslice/internal/bitvec"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/obs"
)

// obsColumn builds a 16-bit column whose values cluster per segment, so
// zone maps (when zoned) resolve many segments and deep early stops still
// occur.
func obsColumn(t *testing.T, n int, zoned bool) *core.ByteSlice {
	t.Helper()
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = uint32((i / core.SegmentSize * 97) % 50_000)
	}
	b := core.New(codes, 16, nil)
	if zoned {
		b.BuildZoneMaps()
	}
	return b
}

// TestScanObsMatchesPlain asserts the instrumented scan produces
// bit-identical results to the uninstrumented one for every operator, and
// that the depth histogram covers exactly the scanned segments.
func TestScanObsMatchesPlain(t *testing.T) {
	b := obsColumn(t, 10_000, false)
	preds := []layout.Predicate{
		{Op: layout.Eq, C1: 97},
		{Op: layout.Ne, C1: 97},
		{Op: layout.Lt, C1: 25_000},
		{Op: layout.Le, C1: 25_000},
		{Op: layout.Gt, C1: 25_000},
		{Op: layout.Ge, C1: 25_000},
		{Op: layout.Between, C1: 10_000, C2: 30_000},
	}
	for _, p := range preds {
		want := bitvec.New(b.Len())
		must1(Scan(Exec{}, b, p, want))
		got := bitvec.New(b.Len())
		q := obs.NewQuery()
		st := q.NewStage("scan", "scan")
		must1(Scan(Exec{Workers: 4, Stage: st}, b, p, got))
		for i := 0; i < b.Len(); i++ {
			if got.Get(i) != want.Get(i) {
				t.Fatalf("op %v row %d: obs %v, plain %v", p.Op, i, got.Get(i), want.Get(i))
			}
		}
		s := st.Snapshot()
		if s.Segments != int64(b.Segments()) {
			t.Fatalf("op %v: segments = %d, want %d", p.Op, s.Segments, b.Segments())
		}
		var depthSum int64
		for d := 1; d <= obs.MaxDepth; d++ {
			depthSum += s.EarlyStop[d]
		}
		if depthSum != int64(b.Segments()) {
			t.Fatalf("op %v: depth histogram sums to %d, want %d", p.Op, depthSum, b.Segments())
		}
		if s.BytesTouched < int64(b.Segments())*core.SegmentSize {
			t.Fatalf("op %v: bytes = %d, below one slice per segment", p.Op, s.BytesTouched)
		}
		if s.Workers != 4 {
			t.Fatalf("op %v: workers = %d, want 4", p.Op, s.Workers)
		}
		if s.Batches == 0 || s.BatchNs.Count != s.Batches {
			t.Fatalf("op %v: batches = %d, hist count %d", p.Op, s.Batches, s.BatchNs.Count)
		}
	}
}

// TestZonedObsAccounting asserts zone-resolved plus scanned segments cover
// the column and that zone-resolved segments count as depth 0.
func TestZonedObsAccounting(t *testing.T) {
	b := obsColumn(t, 10_000, true)
	p := layout.Predicate{Op: layout.Lt, C1: 25_000}
	plain := bitvec.New(b.Len())
	wantPruned := must1(Scan(Exec{}, b, p, plain))
	if wantPruned == 0 {
		t.Fatal("test column should have zone-resolvable segments")
	}

	got := bitvec.New(b.Len())
	q := obs.NewQuery()
	st := q.NewStage("scan(zoned)", "scan_zoned")
	pruned := must1(Scan(Exec{Workers: 4, Stage: st}, b, p, got))
	if pruned != wantPruned {
		t.Fatalf("pruned = %d, want %d", pruned, wantPruned)
	}
	for i := 0; i < b.Len(); i++ {
		if got.Get(i) != plain.Get(i) {
			t.Fatalf("row %d: obs %v, plain %v", i, got.Get(i), plain.Get(i))
		}
	}
	s := st.Snapshot()
	if s.ZoneSkipped != int64(pruned) || s.EarlyStop[0] != int64(pruned) {
		t.Fatalf("zoneSkipped = %d, depth[0] = %d, want %d", s.ZoneSkipped, s.EarlyStop[0], pruned)
	}
	if s.Segments+s.ZoneSkipped != int64(b.Segments()) {
		t.Fatalf("segments %d + zoneSkipped %d != %d", s.Segments, s.ZoneSkipped, b.Segments())
	}
}

// TestPipelinedObsAccounting asserts the gate-skip counter and that the
// instrumented pipelined scans stay bit-identical.
func TestPipelinedObsAccounting(t *testing.T) {
	b := obsColumn(t, 10_000, false)
	bz := obsColumn(t, 10_000, true)
	p1 := layout.Predicate{Op: layout.Lt, C1: 20_000}
	p2 := layout.Predicate{Op: layout.Gt, C1: 5_000}
	prev := bitvec.New(b.Len())
	must1(Scan(Exec{}, b, p1, prev))

	want := bitvec.New(b.Len())
	must1(ScanPipelined(Exec{}, b, p2, prev, false, want))

	got := bitvec.New(b.Len())
	q := obs.NewQuery()
	st := q.NewStage("scan(pipelined)", "pipelined")
	must1(ScanPipelined(Exec{Workers: 2, Stage: st}, b, p2, prev, false, got))
	for i := 0; i < b.Len(); i++ {
		if got.Get(i) != want.Get(i) {
			t.Fatalf("row %d: obs %v, plain %v", i, got.Get(i), want.Get(i))
		}
	}
	s := st.Snapshot()
	if s.Segments+s.MaskSkipped != int64(b.Segments()) {
		t.Fatalf("segments %d + maskSkipped %d != %d", s.Segments, s.MaskSkipped, b.Segments())
	}
	if s.MaskSkipped == 0 {
		t.Fatal("gate should skip some segments for this predicate pair")
	}

	// Zoned + pipelined: all three counters partition the column.
	want2 := bitvec.New(b.Len())
	must1(ScanPipelined(Exec{}, bz, p2, prev, false, want2))
	got2 := bitvec.New(b.Len())
	st2 := q.NewStage("scan(pipelined+zoned)", "pipelined")
	must1(ScanPipelined(Exec{Workers: 2, Stage: st2}, bz, p2, prev, false, got2))
	for i := 0; i < b.Len(); i++ {
		if got2.Get(i) != want2.Get(i) {
			t.Fatalf("row %d: zoned obs %v, plain %v", i, got2.Get(i), want2.Get(i))
		}
	}
	s2 := st2.Snapshot()
	if s2.Segments+s2.ZoneSkipped+s2.MaskSkipped != int64(b.Segments()) {
		t.Fatalf("segments %d + zone %d + mask %d != %d",
			s2.Segments, s2.ZoneSkipped, s2.MaskSkipped, b.Segments())
	}
}

// TestMultiObsMatchesPlain asserts the instrumented predicate-first scan
// matches the plain one and counts per-predicate evaluations.
func TestMultiObsMatchesPlain(t *testing.T) {
	a := obsColumn(t, 10_000, true)
	b := obsColumn(t, 10_000, true)
	cols := []*core.ByteSlice{a, b}
	preds := []layout.Predicate{
		{Op: layout.Lt, C1: 30_000},
		{Op: layout.Gt, C1: 10_000},
	}
	for _, disjunct := range []bool{false, true} {
		want := bitvec.New(a.Len())
		wantPruned := must1(ScanMulti(Exec{}, cols, preds, disjunct, want))
		got := bitvec.New(a.Len())
		q := obs.NewQuery()
		st := q.NewStage("scan(multi)", "scan_multi")
		pruned := must1(ScanMulti(Exec{Workers: 2, Stage: st}, cols, preds, disjunct, got))
		if pruned != wantPruned {
			t.Fatalf("disjunct=%v: pruned = %d, want %d", disjunct, pruned, wantPruned)
		}
		for i := 0; i < a.Len(); i++ {
			if got.Get(i) != want.Get(i) {
				t.Fatalf("disjunct=%v row %d: obs %v, plain %v", disjunct, i, got.Get(i), want.Get(i))
			}
		}
		s := st.Snapshot()
		if s.ZoneSkipped != int64(pruned) {
			t.Fatalf("disjunct=%v: zoneSkipped = %d, want %d", disjunct, s.ZoneSkipped, pruned)
		}
		// Short-circuiting bounds: between 1 and len(preds) evaluations per
		// segment, counting both zone-resolved and scanned conjuncts.
		total := s.Segments + s.ZoneSkipped
		if total < int64(a.Segments()) || total > int64(a.Segments()*len(preds)) {
			t.Fatalf("disjunct=%v: %d evaluations outside [%d,%d]",
				disjunct, total, a.Segments(), a.Segments()*len(preds))
		}
	}
}

// TestAggregateLookupObs sanity-checks the aggregate and lookup stage
// accounting: results unchanged, rows/segments recorded.
func TestAggregateLookupObs(t *testing.T) {
	b := obsColumn(t, 5_000, true)
	wantSum, wantCount := must2(Sum(par(2), b, nil))
	q := obs.NewQuery()
	st := q.NewStage("sum", "sum")
	sum, count := must2(Sum(Exec{Workers: 2, Stage: st}, b, nil))
	if sum != wantSum || count != wantCount {
		t.Fatalf("sum = %d/%d, want %d/%d", sum, count, wantSum, wantCount)
	}
	if s := st.Snapshot(); s.Segments != int64(b.Segments()) || s.BytesTouched == 0 {
		t.Fatalf("sum stage: %+v", s)
	}

	rows := []int32{0, 31, 63, 4_000}
	out := make([]uint32, len(rows))
	stl := q.NewStage("lookup", "lookup")
	must(LookupMany(Exec{Stage: stl}, b, rows, out))
	if s := stl.Snapshot(); s.Rows != int64(len(rows)) || s.Batches == 0 {
		t.Fatalf("lookup stage: %+v", s)
	}
}
