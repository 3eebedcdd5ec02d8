package experiments

import (
	"fmt"

	"byteslice"
	"byteslice/internal/layouts"
	"byteslice/internal/realdata"
	"byteslice/internal/tpch"
)

func init() {
	register("fig14", fig14)
	register("fig20", fig20)
	register("fig21", fig21)
	register("fig22", fig22)
}

// strategyFor matches the paper's setup: ByteSlice uses the column-first
// pipelined evaluation it recommends; the other layouts evaluate complex
// predicates conventionally.
func strategyFor(layoutName string) byteslice.Strategy {
	if layoutName == "ByteSlice" {
		return byteslice.StrategyColumnFirst
	}
	return byteslice.StrategyBaseline
}

// runSuite executes queries on the table under every layout and returns
// results[layout][query]. With a non-nil check (the scalar oracle), every
// result's match count is validated; a failed query or a mismatch panics.
func runSuite(tables map[string]*byteslice.Table, queries []tpch.Query, check func(tpch.Query, int) error) map[string]map[string]tpch.Result {
	out := make(map[string]map[string]tpch.Result, len(tables))
	for name, tb := range tables {
		out[name] = make(map[string]tpch.Result, len(queries))
		for _, q := range queries {
			res, err := tpch.Run(tb, q, strategyFor(name), byteslice.NewProfile())
			if err == nil && check != nil {
				err = check(q, res.Matches)
			}
			if err != nil {
				panic(fmt.Sprintf("%s/%s: %v", name, q.Name, err))
			}
			out[name][q.Name] = res
		}
	}
	return out
}

// buildAll formats a dataset once per layout.
func buildAll(build func(byteslice.Format) *byteslice.Table) map[string]*byteslice.Table {
	tables := make(map[string]*byteslice.Table, len(layouts.Names))
	for _, name := range layouts.Names {
		tables[name] = build(byteslice.Format(name))
	}
	return tables
}

// speedupReport renders per-query speedups over the Bit-Packed layout —
// the presentation of Figures 14, 21 and 22a.
func speedupReport(id, title string, queries []tpch.Query, results map[string]map[string]tpch.Result) *Report {
	r := &Report{ID: id, Title: title,
		Columns: append([]string{"query"}, layouts.Names...)}
	for _, q := range queries {
		base := results["BitPacked"][q.Name].TotalCycles()
		row := []string{q.Name}
		for _, name := range layouts.Names {
			c := results[name][q.Name].TotalCycles()
			if c == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, f2(base/c)+"x")
		}
		r.AddRow(row...)
	}
	return r
}

// breakdownReport renders the scan/lookup time split per query and layout
// (cycles per tuple) — the presentation of Figures 20 and 22b.
func breakdownReport(id, title string, n int, queries []tpch.Query, results map[string]map[string]tpch.Result) *Report {
	r := &Report{ID: id, Title: title,
		Columns: []string{"query", "layout", "scan cyc/tuple", "lookup cyc/tuple", "total", "matches"}}
	for _, q := range queries {
		for _, name := range layouts.Names {
			res := results[name][q.Name]
			r.AddRow(q.Name, name,
				ff(res.ScanCycles/float64(n)),
				ff(res.LookupCycles/float64(n)),
				ff(res.TotalCycles()/float64(n)),
				fi(uint64(res.Matches)))
		}
	}
	return r
}

// tpchSuite generates the TPC-H wide table at the given skew and runs
// every kernel on every layout, validating each against the scalar oracle.
func tpchSuite(cfg Config, skew float64) ([]tpch.Query, map[string]map[string]tpch.Result) {
	d := tpch.Generate(tpch.Config{Rows: cfg.TPCHRows, Seed: cfg.Seed, Skew: skew})
	queries := tpch.Queries(d)
	results := runSuite(buildAll(d.Build), queries, func(q tpch.Query, matches int) error {
		return tpch.Validate(d, q, matches)
	})
	return queries, results
}

func fig14(cfg Config) []*Report {
	queries, results := tpchSuite(cfg, 0)
	return []*Report{speedupReport("Fig14", "TPC-H speed-up over Bit-Packed", queries, results)}
}

func fig20(cfg Config) []*Report {
	queries, results := tpchSuite(cfg, 0)
	return []*Report{breakdownReport("Fig20", "TPC-H execution time breakdown", cfg.TPCHRows, queries, results)}
}

func fig21(cfg Config) []*Report {
	var out []*Report
	for _, z := range []float64{1, 2} {
		queries, results := tpchSuite(cfg, z)
		out = append(out, speedupReport("Fig21",
			fmt.Sprintf("TPC-H speed-up over Bit-Packed, zipf = %.0f", z), queries, results))
	}
	return out
}

func fig22(cfg Config) []*Report {
	var out []*Report
	for _, d := range []*realdata.Dataset{realdata.Adult(cfg.Seed), realdata.Baseball(cfg.Seed)} {
		results := runSuite(buildAll(d.Build), d.Queries, nil)
		n := len(d.Raw[d.Specs[0].Name])
		out = append(out,
			speedupReport("Fig22", d.Name+" speed-up over Bit-Packed", d.Queries, results),
			breakdownReport("Fig22", d.Name+" execution time breakdown", n, d.Queries, results))
	}
	return out
}
