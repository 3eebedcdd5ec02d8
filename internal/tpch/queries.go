package tpch

import (
	"fmt"

	"byteslice"
	"byteslice/internal/cache"
	"byteslice/internal/layout"
	"byteslice/internal/simd"
)

// Filter is one column-scalar predicate over raw codes. Queries keep the
// code-space predicate (not a byteslice.Filter) so Validate can evaluate
// it directly on the generated codes.
type Filter struct {
	Col  string
	Pred layout.Predicate
}

// codeFilters converts a group into the facade's code-column filters.
func codeFilters(g []Filter) []byteslice.Filter {
	out := make([]byteslice.Filter, len(g))
	for i, f := range g {
		operands := []uint32{f.Pred.C1}
		if f.Pred.Op == layout.Between {
			operands = append(operands, f.Pred.C2)
		}
		out[i] = byteslice.CodeFilter(f.Col, f.Pred.Op, operands...)
	}
	return out
}

// Query is one selection–projection kernel. The predicate is either a CNF
// (AND of OR-groups; most queries are pure conjunctions with singleton
// groups) or — when DNF is set — a disjunction of conjunctions (Q19).
type Query struct {
	Name string
	// Where is CNF: the groups are ANDed; filters inside a group are ORed.
	Where [][]Filter
	// DNF, when non-empty, replaces Where: the groups are ORed; filters
	// inside a group are ANDed.
	DNF [][]Filter
	// Residual, when set, is a predicate scans cannot evaluate (TPC-H's
	// column-vs-column comparisons, e.g. l_commitdate < l_receiptdate in
	// Q4): it is applied to scan survivors by looking up the named columns
	// — the WideTable treatment of non-scannable conjuncts.
	Residual *Residual
	// Project lists the columns looked up for every matching record.
	Project []string
	// Agg, when set, completes the kernel with its aggregation over the
	// projected columns. Aggregation consumes the standard-array
	// intermediates, so it is layout independent (§2) and is not part of
	// the scan/lookup costs the figures report; it exists so the kernels
	// produce the queries' actual answers.
	Agg *Aggregate
}

// Residual is a row predicate over looked-up codes.
type Residual struct {
	Cols []string
	Keep func(vals []uint32) bool
}

// lessThan is the col1 < col2 residual used by Q4 and Q12.
var lessThan = func(v []uint32) bool { return v[0] < v[1] }

// equalTo is the col1 = col2 residual used by Q5.
var equalTo = func(v []uint32) bool { return v[0] == v[1] }

// Pred builds one filter: op with constant c1 (and c2 for Between).
func Pred(col string, op layout.Op, c1 uint32, c2 ...uint32) Filter {
	fl := Filter{Col: col, Pred: layout.Predicate{Op: op, C1: c1}}
	if len(c2) > 0 {
		fl.Pred.C2 = c2[0]
	}
	return fl
}

// And makes a pure conjunction: one singleton CNF group per filter.
func And(fs ...Filter) [][]Filter {
	groups := make([][]Filter, len(fs))
	for i, fl := range fs {
		groups[i] = []Filter{fl}
	}
	return groups
}

// Queries instantiates the paper's thirteen TPC-H selection–projection
// kernels against this dataset's encoders. Predicate structure and
// constants follow the TPC-H specification's validation parameters (the
// selection–projection reduction of [32]); LIKE-based queries are omitted,
// as in the paper.
func Queries(d *Dataset) []Query {
	day := d.DayCode
	dc := d.DictCode
	return []Query{
		{
			// Q1: pricing summary report; ~98% selectivity, heavy lookups.
			Name:  "Q1",
			Where: And(Pred("l_shipdate", layout.Le, day(1998, 9, 2))),
			Project: []string{"l_quantity", "l_extendedprice", "l_discount", "l_tax",
				"l_returnflag", "l_linestatus"},
			Agg: &Aggregate{
				Exprs:   []string{"sum_qty", "sum_base_price", "sum_disc_price", "sum_charge"},
				Inputs:  []string{"l_quantity", "l_extendedprice", "l_discount", "l_tax"},
				GroupBy: []string{"l_returnflag", "l_linestatus"},
				Decode:  d.Decode,
				Eval: func(v map[string]float64) []float64 {
					price := v["l_extendedprice"]
					disc := price * (1 - v["l_discount"])
					return []float64{v["l_quantity"], price, disc, disc * (1 + v["l_tax"])}
				},
			},
		},
		{
			// Q3: shipping priority.
			Name: "Q3",
			Where: And(
				Pred("c_mktsegment", layout.Eq, dc("c_mktsegment", "BUILDING")),
				Pred("o_orderdate", layout.Lt, day(1995, 3, 15)),
				Pred("l_shipdate", layout.Gt, day(1995, 3, 15)),
			),
			Project: []string{"l_extendedprice", "l_discount", "o_orderdate"},
		},
		{
			// Q4: order priority checking; l_commitdate < l_receiptdate is
			// a column-vs-column comparison, evaluated on scan survivors
			// by lookups.
			Name: "Q4",
			Where: And(
				Pred("o_orderdate", layout.Between, day(1993, 7, 1), day(1993, 10, 1)-1),
			),
			Residual: &Residual{Cols: []string{"l_commitdate", "l_receiptdate"}, Keep: lessThan},
			Project:  []string{"o_orderpriority"},
		},
		{
			// Q5: local supplier volume (region ASIA, one order-date year,
			// customer and supplier in the same nation — the flag column).
			Name: "Q5",
			Where: And(
				Pred("o_orderdate", layout.Between, day(1994, 1, 1), day(1995, 1, 1)-1),
				Pred("s_regionkey", layout.Eq, dc("region", "ASIA")), // region keys follow dictionary order
			),
			Residual: &Residual{Cols: []string{"c_nationkey", "s_nationkey"}, Keep: equalTo},
			Project:  []string{"l_extendedprice", "l_discount", "s_nationkey"},
		},
		{
			// Q6: forecasting revenue change; the classic ~2% scan.
			Name: "Q6",
			Where: And(
				Pred("l_shipdate", layout.Between, day(1994, 1, 1), day(1995, 1, 1)-1),
				Pred("l_discount", layout.Between, 5, 7),
				Pred("l_quantity", layout.Lt, 24),
			),
			Project: []string{"l_extendedprice", "l_discount"},
			Agg: &Aggregate{
				Exprs:  []string{"revenue"},
				Inputs: []string{"l_extendedprice", "l_discount"},
				Decode: d.Decode,
				Eval: func(v map[string]float64) []float64 {
					return []float64{v["l_extendedprice"] * v["l_discount"]}
				},
			},
		},
		{
			// Q8: national market share.
			Name: "Q8",
			Where: And(
				Pred("c_regionkey", layout.Eq, dc("region", "AMERICA")),
				Pred("p_type", layout.Eq, dc("p_type", "ECONOMY ANODIZED STEEL")),
				Pred("o_orderdate", layout.Between, day(1995, 1, 1), day(1996, 12, 31)),
			),
			Project: []string{"l_extendedprice", "l_discount", "s_nationkey", "o_orderdate"},
		},
		{
			// Q10: returned item reporting.
			Name: "Q10",
			Where: And(
				Pred("o_orderdate", layout.Between, day(1993, 10, 1), day(1994, 1, 1)-1),
				Pred("l_returnflag", layout.Eq, dc("l_returnflag", "R")),
			),
			Project: []string{"l_extendedprice", "l_discount", "c_nationkey"},
		},
		{
			// Q11: important stock identification (suppliers of one nation;
			// GERMANY is nation key 7 in dictionary order here).
			Name:    "Q11",
			Where:   And(Pred("s_nationkey", layout.Eq, 7)),
			Project: []string{"ps_supplycost", "ps_availqty"},
		},
		{
			// Q12: shipping modes and order priority; the shipmode IN-list
			// is an OR-group inside the conjunction.
			Name: "Q12",
			Where: [][]Filter{
				{Pred("l_receiptdate", layout.Between, day(1994, 1, 1), day(1995, 1, 1)-1)},
				{
					Pred("l_shipmode", layout.Eq, dc("l_shipmode", "MAIL")),
					Pred("l_shipmode", layout.Eq, dc("l_shipmode", "SHIP")),
				},
			},
			Residual: &Residual{Cols: []string{"l_commitdate", "l_receiptdate"}, Keep: lessThan},
			Project:  []string{"o_orderpriority"},
		},
		{
			// Q14: promotion effect.
			Name:    "Q14",
			Where:   And(Pred("l_shipdate", layout.Between, day(1995, 9, 1), day(1995, 10, 1)-1)),
			Project: []string{"p_type", "l_extendedprice", "l_discount"},
		},
		{
			// Q15: top supplier.
			Name:    "Q15",
			Where:   And(Pred("l_shipdate", layout.Between, day(1996, 1, 1), day(1996, 4, 1)-1)),
			Project: []string{"l_suppkey", "l_extendedprice", "l_discount"},
		},
		{
			// Q17: small-quantity-order revenue; highly selective.
			Name: "Q17",
			Where: And(
				Pred("p_brand", layout.Eq, dc("p_brand", "Brand#23")),
				Pred("p_container", layout.Eq, dc("p_container", "MED BOX")),
			),
			Project: []string{"l_quantity", "l_extendedprice"},
		},
		{
			// Q19: discounted revenue — a disjunction of three brand/
			// container-class/quantity/size conjunctions.
			Name: "Q19",
			DNF: [][]Filter{
				{
					Pred("p_brand", layout.Eq, dc("p_brand", "Brand#12")),
					Pred("p_container", layout.Between, dc("p_container", "SM BAG"), dc("p_container", "SM PKG")),
					Pred("l_quantity", layout.Between, 1, 11),
					Pred("p_size", layout.Between, 1, 5),
				},
				{
					Pred("p_brand", layout.Eq, dc("p_brand", "Brand#23")),
					Pred("p_container", layout.Between, dc("p_container", "MED BAG"), dc("p_container", "MED PKG")),
					Pred("l_quantity", layout.Between, 10, 20),
					Pred("p_size", layout.Between, 1, 10),
				},
				{
					Pred("p_brand", layout.Eq, dc("p_brand", "Brand#34")),
					Pred("p_container", layout.Between, dc("p_container", "LG BAG"), dc("p_container", "LG PKG")),
					Pred("l_quantity", layout.Between, 20, 30),
					Pred("p_size", layout.Between, 1, 15),
				},
			},
			Project: []string{"l_extendedprice", "l_discount"},
		},
	}
}

// Result carries the per-phase profile of one query execution.
type Result struct {
	Query   string
	Matches int
	// Groups holds the aggregation output when the kernel defines one.
	Groups []GroupResult
	// Scan and Lookup are snapshots of the modelled costs of each phase.
	ScanCycles, LookupCycles     float64
	ScanInstr, LookupInstr       uint64
	ScanL2Misses, LookupL2Misses uint64
}

// TotalCycles is the selection–projection cost the paper's Figure 14/20
// report (normalised per tuple by callers).
func (r Result) TotalCycles() float64 { return r.ScanCycles + r.LookupCycles }

// Run executes the kernel over the table on the facade's modelled path,
// profiling the scan phase and the lookup (projection) phase separately —
// Figure 20's breakdown. prof must be non-nil: it selects the modelled
// executor. Predicates run in the order written, one Filter or FilterAny
// per group, so the modelled counts are those of the paper's per-group
// evaluation.
func Run(t *byteslice.Table, q Query, s byteslice.Strategy, prof *byteslice.Profile) (Result, error) {
	res := Result{Query: q.Name}
	opts := []byteslice.QueryOption{
		byteslice.WithProfile(prof),
		byteslice.WithStrategy(s),
		byteslice.WithFilterOrder(byteslice.OrderAsWritten),
	}

	scanStart := snapshot(prof)
	var match *byteslice.Result
	var err error
	switch {
	case len(q.DNF) > 0:
		match, err = runDNF(t, q.DNF, opts)
	default:
		match, err = runCNF(t, q.Where, opts)
	}
	if err != nil {
		return res, err
	}
	res.ScanCycles, res.ScanInstr, res.ScanL2Misses = delta(prof, scanStart)

	lookupStart := snapshot(prof)
	rows := match.Rows()
	if q.Residual != nil {
		if rows, err = applyResidual(t, q.Residual, rows, prof); err != nil {
			return res, err
		}
	}
	res.Matches = len(rows)
	proj, err := Project(t, q.Project, rows, prof)
	if err != nil {
		return res, err
	}
	res.LookupCycles, res.LookupInstr, res.LookupL2Misses = delta(prof, lookupStart)

	if q.Agg != nil {
		res.Groups, err = q.Agg.Run(proj)
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// lookupColumns resolves the named columns of t.
func lookupColumns(t *byteslice.Table, names []string) ([]*byteslice.Column, error) {
	cols := make([]*byteslice.Column, len(names))
	for i, name := range names {
		c, err := t.Column(name)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	return cols, nil
}

// applyResidual evaluates the non-scannable predicate on scan survivors by
// looking up its columns row by row, and returns the rows that pass.
func applyResidual(t *byteslice.Table, r *Residual, rows []int32, prof *byteslice.Profile) ([]int32, error) {
	cols, err := lookupColumns(t, r.Cols)
	if err != nil {
		return nil, err
	}
	e := simd.New(prof)
	kept := rows[:0]
	vals := make([]uint32, len(cols))
	for _, row := range rows {
		for i, c := range cols {
			vals[i] = c.LookupCode(prof, int(row))
		}
		e.Scalar(1) // the comparison itself
		if r.Keep(vals) {
			kept = append(kept, row)
		}
	}
	return kept, nil
}

// Projection is the output of Project: per requested column, the looked-up
// codes of every matching row, in an array of a standard data type — the
// intermediate-result representation existing column stores use (§2).
type Projection struct {
	Rows    []int32
	Columns map[string][]uint32
}

// Project looks up the named columns for the given rows, one column at a
// time.
func Project(t *byteslice.Table, names []string, rows []int32, prof *byteslice.Profile) (*Projection, error) {
	cols, err := lookupColumns(t, names)
	if err != nil {
		return nil, err
	}
	p := &Projection{Rows: rows, Columns: make(map[string][]uint32, len(names))}
	for i, c := range cols {
		vals := make([]uint32, len(rows))
		for j, r := range rows {
			vals[j] = c.LookupCode(prof, int(r))
		}
		p.Columns[names[i]] = vals
	}
	return p, nil
}

// runCNF evaluates AND over groups, each group an OR of filters.
func runCNF(t *byteslice.Table, groups [][]Filter, opts []byteslice.QueryOption) (*byteslice.Result, error) {
	// Pure conjunction fast path uses the strategy end to end.
	pure := make([]Filter, 0, len(groups))
	isPure := true
	for _, g := range groups {
		if len(g) != 1 {
			isPure = false
			break
		}
		pure = append(pure, g[0])
	}
	if isPure {
		return t.Filter(codeFilters(pure), opts...)
	}
	var acc *byteslice.Result
	for _, g := range groups {
		eval := t.Filter
		if len(g) > 1 {
			eval = t.FilterAny
		}
		cur, err := eval(codeFilters(g), opts...)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = cur
		} else {
			acc.And(cur)
		}
	}
	return acc, nil
}

// runDNF evaluates OR over groups, each group an AND of filters.
func runDNF(t *byteslice.Table, groups [][]Filter, opts []byteslice.QueryOption) (*byteslice.Result, error) {
	var acc *byteslice.Result
	for _, g := range groups {
		cur, err := t.Filter(codeFilters(g), opts...)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = cur
		} else {
			acc.Or(cur)
		}
	}
	return acc, nil
}

type snap struct {
	cycles float64
	instr  uint64
	l2miss uint64
}

func snapshot(p *byteslice.Profile) snap {
	s := snap{cycles: p.Cycles(), instr: p.Instructions()}
	if p.Cache != nil {
		st := p.Cache.Stats()
		s.l2miss = st.MissesBelow(cache.L2)
	}
	return s
}

func delta(p *byteslice.Profile, s snap) (cycles float64, instr, l2 uint64) {
	n := snapshot(p)
	return n.cycles - s.cycles, n.instr - s.instr, n.l2miss - s.l2miss
}

// Validate cross-checks a query result against a scalar evaluation over
// the raw codes; it is used by tests and the harness's self-check mode.
func Validate(d *Dataset, q Query, matches int) error {
	want := 0
	n := d.Cfg.Rows
	evalGroup := func(i int, g []Filter, anyOf bool) bool {
		res := !anyOf
		for _, fl := range g {
			m := fl.Pred.Eval(d.Raw[fl.Col][i])
			if anyOf {
				res = res || m
			} else {
				res = res && m
			}
		}
		return res
	}
	vals := make([]uint32, 0, 4)
	for i := 0; i < n; i++ {
		var ok bool
		if len(q.DNF) > 0 {
			ok = false
			for _, g := range q.DNF {
				if evalGroup(i, g, false) {
					ok = true
					break
				}
			}
		} else {
			ok = true
			for _, g := range q.Where {
				if !evalGroup(i, g, true) {
					ok = false
					break
				}
			}
		}
		if ok && q.Residual != nil {
			vals = vals[:0]
			for _, c := range q.Residual.Cols {
				vals = append(vals, d.Raw[c][i])
			}
			ok = q.Residual.Keep(vals)
		}
		if ok {
			want++
		}
	}
	if want != matches {
		return fmt.Errorf("tpch %s: %d matches, oracle says %d", q.Name, matches, want)
	}
	return nil
}
