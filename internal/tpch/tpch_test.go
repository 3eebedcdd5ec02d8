package tpch_test

import (
	"testing"

	"byteslice"
	"byteslice/internal/perf"
	"byteslice/internal/tpch"
)

func genSmall(t *testing.T, skew float64) *tpch.Dataset {
	t.Helper()
	return tpch.Generate(tpch.Config{Rows: 20000, Seed: 1, Skew: skew})
}

func TestGenerateDeterministicAndInDomain(t *testing.T) {
	a := genSmall(t, 0)
	b := genSmall(t, 0)
	for name, codes := range a.Raw {
		other := b.Raw[name]
		for i := range codes {
			if codes[i] != other[i] {
				t.Fatalf("column %s not deterministic at row %d", name, i)
			}
		}
	}
	// Widths hold (CheckArgs panics otherwise) and the paper's claim that
	// ~90% of TPC-H columns encode under 24 bits should be visible here.
	under24 := 0
	for _, s := range a.Specs {
		if s.K <= 24 {
			under24++
		}
		if s.K < 1 || s.K > 32 {
			t.Fatalf("column %s has width %d", s.Name, s.K)
		}
	}
	if float64(under24)/float64(len(a.Specs)) < 0.9 {
		t.Fatalf("only %d/%d columns under 24 bits", under24, len(a.Specs))
	}
}

func TestDateCorrelations(t *testing.T) {
	d := genSmall(t, 0)
	ship, order := d.Raw["l_shipdate"], d.Raw["o_orderdate"]
	commit, receipt := d.Raw["l_commitdate"], d.Raw["l_receiptdate"]
	flag := d.Raw["l_commit_lt_receipt"]
	for i := range ship {
		if ship[i] <= order[i] || ship[i] > order[i]+121 {
			t.Fatalf("row %d: shipdate %d not derived from orderdate %d", i, ship[i], order[i])
		}
		if receipt[i] <= ship[i] {
			t.Fatalf("row %d: receipt before ship", i)
		}
		want := uint32(0)
		if commit[i] < receipt[i] {
			want = 1
		}
		if flag[i] != want {
			t.Fatalf("row %d: commit<receipt flag wrong", i)
		}
	}
}

// TestAllQueriesAllLayouts runs every kernel on every layout and checks
// match counts against the scalar oracle and across layouts.
func TestAllQueriesAllLayouts(t *testing.T) {
	d := genSmall(t, 0)
	queries := tpch.Queries(d)
	if len(queries) != 13 {
		t.Fatalf("expected 13 queries, got %d", len(queries))
	}
	for _, name := range byteslice.Formats() {
		tb := d.Build(name)
		for _, q := range queries {
			strategy := byteslice.StrategyBaseline
			if name == byteslice.FormatByteSlice {
				strategy = byteslice.StrategyColumnFirst
			}
			res, err := tpch.Run(tb, q, strategy, perf.NewProfileNoCache())
			if err != nil {
				t.Fatalf("%s/%s: %v", name, q.Name, err)
			}
			if err := tpch.Validate(d, q, res.Matches); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.ScanInstr == 0 {
				t.Fatalf("%s/%s: no scan instructions recorded", name, q.Name)
			}
			if len(q.Project) > 0 && res.Matches > 0 && res.LookupInstr == 0 {
				t.Fatalf("%s/%s: no lookup instructions recorded", name, q.Name)
			}
		}
	}
}

// TestQuerySelectivities pins the rough selectivity regimes the paper's
// discussion depends on: Q1 nearly unselective, Q6 a few percent, Q17/Q19
// well under a percent.
func TestQuerySelectivities(t *testing.T) {
	d := tpch.Generate(tpch.Config{Rows: 100000, Seed: 2})
	tb := d.Build(byteslice.FormatByteSlice)
	sel := map[string]float64{}
	for _, q := range tpch.Queries(d) {
		res, err := tpch.Run(tb, q, byteslice.StrategyColumnFirst, perf.NewProfileNoCache())
		if err != nil {
			t.Fatal(err)
		}
		sel[q.Name] = float64(res.Matches) / float64(d.Cfg.Rows)
	}
	if sel["Q1"] < 0.9 {
		t.Fatalf("Q1 selectivity %.3f, want ≈0.98", sel["Q1"])
	}
	if sel["Q6"] < 0.002 || sel["Q6"] > 0.06 {
		t.Fatalf("Q6 selectivity %.4f, want a few percent", sel["Q6"])
	}
	if sel["Q17"] > 0.01 {
		t.Fatalf("Q17 selectivity %.4f, want ≪ 1%%", sel["Q17"])
	}
	if sel["Q19"] > 0.01 || sel["Q19"] == 0 {
		t.Fatalf("Q19 selectivity %.5f, want small but non-zero", sel["Q19"])
	}
}

func TestSkewedGeneration(t *testing.T) {
	d := genSmall(t, 1)
	// Zipfian quantity should concentrate near 1.
	small := 0
	for _, q := range d.Raw["l_quantity"] {
		if q <= 5 {
			small++
		}
	}
	if float64(small)/float64(len(d.Raw["l_quantity"])) < 0.5 {
		t.Fatalf("skewed quantities not concentrated: %d/%d ≤ 5", small, len(d.Raw["l_quantity"]))
	}
	// Queries still validate on skewed data.
	tb := d.Build(byteslice.FormatByteSlice)
	for _, q := range tpch.Queries(d)[:4] {
		res, err := tpch.Run(tb, q, byteslice.StrategyColumnFirst, perf.NewProfileNoCache())
		if err != nil {
			t.Fatal(err)
		}
		if err := tpch.Validate(d, q, res.Matches); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDayEncoding(t *testing.T) {
	if tpch.Day(1992, 1, 1) != 0 {
		t.Fatal("epoch should be day 0")
	}
	if tpch.Day(1992, 1, 2) != 1 || tpch.Day(1993, 1, 1) != 366 { // 1992 is a leap year
		t.Fatalf("day arithmetic wrong: %d %d", tpch.Day(1992, 1, 2), tpch.Day(1993, 1, 1))
	}
	d := genSmall(t, 0)
	if d.DayCode(1991, 1, 1) != 0 {
		t.Fatal("pre-epoch dates should clamp to 0")
	}
}

// TestQ1AndQ6Aggregates checks the completed kernels produce the actual
// query answers, identically across layouts.
func TestQ1AndQ6Aggregates(t *testing.T) {
	d := genSmall(t, 0)
	queries := tpch.Queries(d)
	var q1, q6 tpch.Query
	for _, q := range queries {
		switch q.Name {
		case "Q1":
			q1 = q
		case "Q6":
			q6 = q
		}
	}
	var wantQ1 map[string][]float64
	var wantQ6 float64
	for _, name := range []byteslice.Format{byteslice.FormatByteSlice, byteslice.FormatHBP} {
		tb := d.Build(name)
		r1, err := tpch.Run(tb, q1, byteslice.StrategyBaseline, perf.NewProfileNoCache())
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Groups) != 6 { // 3 return flags × 2 line statuses
			t.Fatalf("%s: Q1 groups = %d, want 6", name, len(r1.Groups))
		}
		groups := map[string][]float64{}
		rows := 0
		for _, g := range r1.Groups {
			groups[g.Key] = g.Sums
			rows += g.Rows
		}
		if rows != r1.Matches {
			t.Fatalf("%s: Q1 group rows %d != matches %d", name, rows, r1.Matches)
		}
		if wantQ1 == nil {
			wantQ1 = groups
		} else {
			for k, sums := range wantQ1 {
				for i := range sums {
					if diff := sums[i] - groups[k][i]; diff > 1e-6 || diff < -1e-6 {
						t.Fatalf("%s: Q1 group %q expr %d differs", name, k, i)
					}
				}
			}
		}

		r6, err := tpch.Run(tb, q6, byteslice.StrategyBaseline, perf.NewProfileNoCache())
		if err != nil {
			t.Fatal(err)
		}
		if len(r6.Groups) != 1 {
			t.Fatalf("%s: Q6 groups = %d", name, len(r6.Groups))
		}
		rev := r6.Groups[0].Sums[0]
		if rev <= 0 {
			t.Fatalf("%s: Q6 revenue = %v", name, rev)
		}
		if wantQ6 == 0 {
			wantQ6 = rev
		} else if diff := rev - wantQ6; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("%s: Q6 revenue differs: %v vs %v", name, rev, wantQ6)
		}
	}
}

// TestProjectAndAggregate drives Project and Aggregate on a tiny table:
// group-by in first-seen order, multi-expression sums, and the errors for
// inputs that are not projected, lack a decoder, or change arity.
func TestProjectAndAggregate(t *testing.T) {
	tb := tpch.MustBuild([]tpch.Spec{
		{Name: "grp", K: 2, Codes: []uint32{0, 1, 0, 1, 2, 0}},
		{Name: "val", K: 8, Codes: []uint32{10, 20, 30, 40, 50, 60}},
		{Name: "flag", K: 1, Codes: []uint32{1, 1, 1, 1, 1, 0}},
	}, byteslice.FormatByteSlice)
	prof := perf.NewProfileNoCache()
	match, err := tb.Filter([]byteslice.Filter{byteslice.CodeFilter("flag", byteslice.Eq, 1)}, byteslice.WithProfile(prof))
	if err != nil {
		t.Fatal(err)
	}
	proj, err := tpch.Project(tb, []string{"grp", "val"}, match.Rows(), prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(proj.Rows) != 5 || proj.Columns["val"][2] != 30 {
		t.Fatalf("projection wrong: rows %v, val %v", proj.Rows, proj.Columns["val"])
	}
	if _, err := tpch.Project(tb, []string{"nope"}, proj.Rows, prof); err == nil {
		t.Fatal("projecting an unknown column should error")
	}

	ident := func(c uint32) float64 { return float64(c) }
	agg := &tpch.Aggregate{
		Exprs:   []string{"sum_val", "sum_sq"},
		Inputs:  []string{"val"},
		GroupBy: []string{"grp"},
		Decode:  map[string]func(uint32) float64{"val": ident},
		Eval: func(v map[string]float64) []float64 {
			return []float64{v["val"], v["val"] * v["val"]}
		},
	}
	groups, err := agg.Run(proj)
	if err != nil {
		t.Fatal(err)
	}
	// Groups in first-seen order: 0 → {10,30}, 1 → {20,40}, 2 → {50}.
	if len(groups) != 3 || groups[0].Sums[0] != 40 || groups[0].Rows != 2 ||
		groups[1].Sums[0] != 60 || groups[2].Sums[0] != 50 || groups[1].Sums[1] != 400+1600 {
		t.Fatalf("groups wrong: %+v", groups)
	}

	if _, err := agg.Run(&tpch.Projection{Columns: map[string][]uint32{}}); err == nil {
		t.Fatal("missing projected input should error")
	}
	noGroup := *agg
	noGroup.GroupBy = []string{"flag"}
	if _, err := noGroup.Run(proj); err == nil {
		t.Fatal("missing projected group-by column should error")
	}
	noDecoder := *agg
	noDecoder.Decode = nil
	if _, err := noDecoder.Run(proj); err == nil {
		t.Fatal("missing decoder should error")
	}
	calls := 0
	ragged := *agg
	ragged.Eval = func(map[string]float64) []float64 {
		calls++
		return make([]float64, calls)
	}
	if _, err := ragged.Run(proj); err == nil {
		t.Fatal("inconsistent Eval arity should error")
	}
}

// TestBuildErrors checks that MustBuild panics on the specs NewTable
// rejects (no columns, ragged lengths, a duplicate name) and on a code
// that does not fit its width.
func TestBuildErrors(t *testing.T) {
	cases := map[string][]tpch.Spec{
		"no columns": nil,
		"ragged": {
			{Name: "a", K: 4, Codes: []uint32{1}},
			{Name: "b", K: 4, Codes: []uint32{1, 2}},
		},
		"duplicate": {
			{Name: "a", K: 4, Codes: []uint32{1}},
			{Name: "a", K: 4, Codes: []uint32{2}},
		},
		"too wide": {{Name: "a", K: 4, Codes: []uint32{16}}},
	}
	for name, specs := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: MustBuild should panic", name)
				}
			}()
			tpch.MustBuild(specs, byteslice.FormatByteSlice)
		}()
	}
}
