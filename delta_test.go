package byteslice_test

// Tests of an IngestTable's delta: the appended rows not yet merged into
// the base epoch, held in sealed segments and the unsealed tail.

import (
	"context"
	"errors"
	"slices"
	"testing"

	"byteslice"
)

func TestDeltaAppendAndFilter(t *testing.T) {
	it, _ := ingestFixture(t, byteslice.WithAutoMerge(false))
	if it.Len() != 3 || it.DeltaLen() != 0 {
		t.Fatalf("fresh table: len %d/%d", it.Len(), it.DeltaLen())
	}
	rows := []map[string]any{
		{"qty": int64(60), "mode": "SHIP"},
		{"qty": int64(2), "mode": "AIR"},
		{"qty": nil, "mode": "SHIP"},
	}
	for _, r := range rows {
		if err := it.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if it.Len() != 6 || it.DeltaLen() != 3 {
		t.Fatalf("after appends: len %d/%d", it.Len(), it.DeltaLen())
	}
	query := func(disjunct bool, filters ...byteslice.Filter) []int32 {
		t.Helper()
		var res *byteslice.Result
		var err error
		if disjunct {
			res, err = it.FilterAny(filters)
		} else {
			res, err = it.Filter(filters)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows()
	}

	// qty ≥ 50 matches base row 1 and delta row 0 (row number 3).
	if got := query(false, byteslice.IntFilter("qty", byteslice.Ge, 50)); !slices.Equal(got, []int32{1, 3}) {
		t.Fatalf("rows = %v, want [1 3]", got)
	}
	// Conjunction spanning base and delta, with the NULL qty row excluded.
	got := query(false,
		byteslice.IntFilter("qty", byteslice.Lt, 100), // trivially true — except for NULLs
		byteslice.StringFilter("mode", byteslice.Eq, "SHIP"))
	if !slices.Equal(got, []int32{1, 3}) {
		t.Fatalf("conjunction rows = %v, want [1 3]", got)
	}
	// Disjunction: the NULL qty row still matches through its mode.
	got = query(true,
		byteslice.IntFilter("qty", byteslice.Lt, 5),
		byteslice.StringFilter("mode", byteslice.Eq, "SHIP"))
	if !slices.Equal(got, []int32{1, 3, 4, 5}) {
		t.Fatalf("disjunction rows = %v, want [1 3 4 5]", got)
	}
}

// TestDeltaAppendValidation: rejected rows leave an existing delta as it
// was, and appends continue after them.
func TestDeltaAppendValidation(t *testing.T) {
	it, _ := ingestFixture(t, byteslice.WithAutoMerge(false))
	if err := it.Append(ingestRow(0)); err != nil {
		t.Fatal(err)
	}
	for i, r := range badIngestRows {
		if err := it.Append(r); err == nil {
			t.Fatalf("case %d: bad row accepted", i)
		}
	}
	if it.DeltaLen() != 1 {
		t.Fatalf("failed appends must not leave partial rows: delta %d", it.DeltaLen())
	}
	if err := it.Append(ingestRow(1)); err != nil {
		t.Fatal(err)
	}
	checkIngestRows(t, it, 2)
}

// TestDeltaMatrix runs the kind × format × NULL-pattern matrix with every
// appended row held in the tail until MergeNow seals and merges it.
func TestDeltaMatrix(t *testing.T) { ingestMatrix(t, 1<<20) }

// TestDeltaFilterBadColumn: predicate resolution failures surface as
// errors up front, over base, sealed and tail rows alike, while an
// out-of-dictionary equality constant matches nothing.
func TestDeltaFilterBadColumn(t *testing.T) {
	it, _ := ingestFixture(t, byteslice.WithSealRows(4), byteslice.WithAutoMerge(false))
	for i := 0; i < 10; i++ {
		if err := it.Append(ingestRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	bad := []byteslice.Filter{
		byteslice.IntFilter("qty", byteslice.Ge, 1),
		byteslice.IntFilter("nope", byteslice.Ge, 1),
	}
	if _, err := it.Filter(bad); err == nil {
		t.Fatal("filter on a missing column succeeded")
	}
	if _, err := it.FilterAny(bad); err == nil {
		t.Fatal("disjunctive filter on a missing column succeeded")
	}
	res, err := it.FilterAny([]byteslice.Filter{byteslice.StringFilter("mode", byteslice.Eq, "TRUCK")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 0 {
		t.Fatalf("out-of-dictionary Eq matched %d rows", res.Count())
	}
}

// TestDeltaContextCancel: a cancelled context stops a disjunctive query
// over sealed and tail rows, and the table keeps answering afterwards.
func TestDeltaContextCancel(t *testing.T) {
	it, _ := ingestFixture(t, byteslice.WithSealRows(4), byteslice.WithAutoMerge(false))
	for i := 0; i < 10; i++ {
		if err := it.Append(ingestRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := it.FilterAny(
		[]byteslice.Filter{byteslice.IntFilter("qty", byteslice.Ge, 5)},
		byteslice.WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled delta filter = %v", err)
	}
	checkIngestRows(t, it, 10)
}

// TestDeltaMerge: MergeNow with only tail rows seals and merges them; the
// merged base decodes their values and NULLs and answers queries as the
// delta did.
func TestDeltaMerge(t *testing.T) {
	it, _ := ingestFixture(t, byteslice.WithAutoMerge(false))
	for _, r := range []map[string]any{
		{"qty": int64(60), "mode": "SHIP"},
		{"qty": nil, "mode": "AIR"},
	} {
		if err := it.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	f := []byteslice.Filter{byteslice.IntFilter("qty", byteslice.Ge, 7)}
	before, err := it.Filter(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.MergeNow(); err != nil {
		t.Fatal(err)
	}
	merged := it.Base()
	if merged.Len() != 5 || it.DeltaLen() != 0 {
		t.Fatalf("merged len = %d, delta %d", merged.Len(), it.DeltaLen())
	}
	qty, err := merged.Column("qty")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := qty.LookupInt(nil, 3); err != nil || v != 60 {
		t.Fatalf("merged row 3 qty = %d (%v)", v, err)
	}
	if !qty.IsNull(4) || qty.NullCount() != 1 {
		t.Fatal("merged nulls wrong")
	}
	mode, err := merged.Column("mode")
	if err != nil {
		t.Fatal(err)
	}
	if s, err := mode.LookupString(nil, 3); err != nil || s != "SHIP" {
		t.Fatalf("merged row 3 mode = %q (%v)", s, err)
	}

	// Queries on the merged base equal the query on the delta view.
	after, err := merged.Filter(f)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(after.Rows(), before.Rows()) {
		t.Fatalf("merged query differs: %v vs %v", after.Rows(), before.Rows())
	}
}

// TestDeltaObsStage: one scan(delta) stage lands in the query's collector
// and counts only the tail rows; sealed segments scan with observability
// off so the logical query is counted once.
func TestDeltaObsStage(t *testing.T) {
	it, _ := ingestFixture(t, byteslice.WithSealRows(4), byteslice.WithAutoMerge(false))
	for i := 0; i < 10; i++ {
		if err := it.Append(ingestRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := it.Filter([]byteslice.Filter{byteslice.IntFilter("qty", byteslice.Ge, 2)})
	if err != nil {
		t.Fatal(err)
	}
	qs := res.Stats()
	if qs == nil {
		t.Fatal("no stats on native delta query")
	}
	var deltaStages []byteslice.StageStats
	for _, st := range qs.Stages {
		if st.Kind == "delta" {
			deltaStages = append(deltaStages, st)
		}
	}
	if len(deltaStages) != 1 || deltaStages[0].Name != "scan(delta)" || deltaStages[0].Rows != 2 {
		t.Fatalf("want one scan(delta) stage over the 2 tail rows, got %+v", qs.Stages)
	}
}
