package realdata_test

import (
	"testing"

	"byteslice"
	"byteslice/internal/perf"
	"byteslice/internal/realdata"
	"byteslice/internal/tpch"
)

func oracleCount(d *realdata.Dataset, q tpch.Query) int {
	n := len(d.Raw[d.Specs[0].Name])
	count := 0
	for i := 0; i < n; i++ {
		ok := true
		for _, g := range q.Where {
			gm := false
			for _, fl := range g {
				if fl.Pred.Eval(d.Raw[fl.Col][i]) {
					gm = true
					break
				}
			}
			if !gm {
				ok = false
				break
			}
		}
		if ok {
			count++
		}
	}
	return count
}

func TestDatasetsShape(t *testing.T) {
	a := realdata.Adult(1)
	if len(a.Raw["age"]) != realdata.AdultRows {
		t.Fatalf("ADULT rows = %d", len(a.Raw["age"]))
	}
	for _, s := range a.Specs {
		if s.K >= 20 && s.Name != "fnlwgt" {
			t.Fatalf("ADULT column %s is %d bits; dataset should encode narrowly", s.Name, s.K)
		}
	}
	if len(a.Queries) != 4 {
		t.Fatalf("ADULT queries = %d", len(a.Queries))
	}

	b := realdata.Baseball(1)
	if len(b.Raw["year"]) != realdata.BaseballRows {
		t.Fatalf("BASEBALL rows = %d", len(b.Raw["year"]))
	}
	for _, s := range b.Specs {
		if s.K >= 20 {
			t.Fatalf("BASEBALL column %s is %d bits", s.Name, s.K)
		}
	}
	if len(b.Queries) != 3 {
		t.Fatalf("BASEBALL queries = %d", len(b.Queries))
	}
}

func TestSkewShapes(t *testing.T) {
	a := realdata.Adult(2)
	zeros := 0
	for _, v := range a.Raw["capital_gain"] {
		if v == 0 {
			zeros++
		}
	}
	if float64(zeros)/float64(realdata.AdultRows) < 0.85 {
		t.Fatalf("capital_gain should be mostly zero: %d", zeros)
	}
	us := 0
	for _, v := range a.Raw["native_country"] {
		if v == 38 {
			us++
		}
	}
	if float64(us)/float64(realdata.AdultRows) < 0.85 {
		t.Fatalf("native_country should be dominated by one value: %d", us)
	}

	b := realdata.Baseball(2)
	big := 0
	for _, v := range b.Raw["home_runs"] {
		if v >= 40 {
			big++
		}
	}
	if big == 0 || float64(big)/float64(realdata.BaseballRows) > 0.05 {
		t.Fatalf("home_runs ≥ 40 should be rare but present: %d", big)
	}
}

func TestQueriesAllLayouts(t *testing.T) {
	for _, d := range []*realdata.Dataset{realdata.Adult(3), realdata.Baseball(3)} {
		for _, name := range byteslice.Formats() {
			tb := d.Build(name)
			for _, q := range d.Queries {
				res, err := tpch.Run(tb, q, byteslice.StrategyColumnFirst, perf.NewProfileNoCache())
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", d.Name, name, q.Name, err)
				}
				if want := oracleCount(d, q); res.Matches != want {
					t.Fatalf("%s/%s/%s: %d matches, oracle %d", d.Name, name, q.Name, res.Matches, want)
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := realdata.Adult(7), realdata.Adult(7)
	for name := range a.Raw {
		for i := range a.Raw[name] {
			if a.Raw[name][i] != b.Raw[name][i] {
				t.Fatalf("column %s differs at %d for identical seeds", name, i)
			}
		}
	}
}
