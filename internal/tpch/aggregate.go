package tpch

import "fmt"

// Aggregate computes per-group sums of an expression over projected
// columns. The expression receives the decoded values of the listed
// columns for one row. groupBy may be empty (one global group). These
// operators read the standard-array intermediates, not the base columns,
// so they are layout independent (§2) — they exist to complete the TPC-H
// kernels.
type Aggregate struct {
	// Exprs names each aggregate expression.
	Exprs []string
	// Eval computes all expressions for one row of decoded values.
	Eval func(vals map[string]float64) []float64
	// Inputs are the projected columns the expressions read.
	Inputs []string
	// GroupBy are projected columns whose codes form the group key.
	GroupBy []string
	// Decode converts an input column's codes back to values.
	Decode map[string]func(uint32) float64
}

// GroupResult is one output group.
type GroupResult struct {
	Key  string
	Sums []float64
	Rows int
}

// Run evaluates the aggregate over the projection. Groups come out in
// first-seen order.
func (a *Aggregate) Run(p *Projection) ([]GroupResult, error) {
	for _, in := range a.Inputs {
		if a.Decode[in] == nil {
			return nil, fmt.Errorf("tpch: column %s has no decoder", in)
		}
		if _, ok := p.Columns[in]; !ok {
			return nil, fmt.Errorf("tpch: column %s not projected", in)
		}
	}
	for _, g := range a.GroupBy {
		if _, ok := p.Columns[g]; !ok {
			return nil, fmt.Errorf("tpch: group-by column %s not projected", g)
		}
	}

	groups := make(map[string]*GroupResult)
	order := make([]string, 0, 8)
	vals := make(map[string]float64, len(a.Inputs))
	for i := range p.Rows {
		key := ""
		for _, g := range a.GroupBy {
			key += fmt.Sprintf("%d|", p.Columns[g][i])
		}
		for _, in := range a.Inputs {
			vals[in] = a.Decode[in](p.Columns[in][i])
		}
		sums := a.Eval(vals)
		gr, ok := groups[key]
		if !ok {
			gr = &GroupResult{Key: key, Sums: make([]float64, len(sums))}
			groups[key] = gr
			order = append(order, key)
		}
		if len(sums) != len(gr.Sums) {
			return nil, fmt.Errorf("tpch: Eval returned inconsistent arity")
		}
		for j, s := range sums {
			gr.Sums[j] += s
		}
		gr.Rows++
	}
	out := make([]GroupResult, 0, len(order))
	for _, k := range order {
		out = append(out, *groups[k])
	}
	return out, nil
}
