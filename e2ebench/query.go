package main

import (
	"strconv"

	"byteslice"
)

// Comparison operators of a leaf, in wire order.
const (
	cmpEq = iota
	cmpLt
	cmpGe
	cmpBetween
)

var cmpNames = [...]string{"eq", "lt", "ge", "between"}

// Operations over the matching rows, in wire order.
const (
	opCount = iota
	opSum
	opAvg
	opMin
	opMax
	opRows
)

var opNames = [...]string{"count", "sum", "avg", "min", "max", "rows"}

// leaf is one comparison. Constants are int64 in the oracle's domain:
// cents for price, the dictionary index for cat.
type leaf struct {
	col, cmp uint8
	lo, hi   int64
}

// query is one /query request in a pointer-free form the benchmark keeps
// during timing. The same value renders the JSON body, the facade
// expression of the traced replay, and the oracle's evaluation.
type query struct {
	op      uint8
	any     bool // Any (true) or All over the leaves
	nLeaves uint8
	leaves  [3]leaf
	aggCol  uint8
	orderBy int8  // column op rows sorts by, -1 for row order
	cols    uint8 // bitmask of the columns op rows projects
	limit   int16
}

// appendArg renders a constant the way the server decodes it for the
// column: integers plain, prices as two-decimal numbers, categories as
// dictionary strings.
func appendArg(b []byte, col uint8, v int64) []byte {
	switch col {
	case colPrice:
		b = strconv.AppendInt(b, v/100, 10)
		b = append(b, '.', byte('0'+v/10%10), byte('0'+v%10))
		return b
	case colCat:
		return strconv.AppendQuote(b, catName(int(v)))
	}
	return strconv.AppendInt(b, v, 10)
}

func (l *leaf) appendJSON(b []byte) []byte {
	b = append(b, `{"col":"`...)
	b = append(b, colNames[l.col]...)
	b = append(b, `","op":"`...)
	b = append(b, cmpNames[l.cmp]...)
	b = append(b, `","args":[`...)
	b = appendArg(b, l.col, l.lo)
	if l.cmp == cmpBetween {
		b = append(b, ',')
		b = appendArg(b, l.col, l.hi)
	}
	return append(b, "]}"...)
}

// appendJSON appends the request body for table to b. The rendering is
// byte-for-byte deterministic, so a seed fixes the request list exactly.
func (q *query) appendJSON(b []byte, table string) []byte {
	b = append(b, `{"table":"`...)
	b = append(b, table...)
	b = append(b, `","op":"`...)
	b = append(b, opNames[q.op]...)
	b = append(b, '"')
	if q.op != opCount && q.op != opRows {
		b = append(b, `,"col":"`...)
		b = append(b, colNames[q.aggCol]...)
		b = append(b, '"')
	}
	if q.op == opRows {
		if q.orderBy >= 0 {
			b = append(b, `,"order_by":"`...)
			b = append(b, colNames[q.orderBy]...)
			b = append(b, '"')
		}
		if q.cols != 0 {
			b = append(b, `,"cols":[`...)
			first := true
			for c := uint8(0); c < numCols; c++ {
				if q.cols&(1<<c) == 0 {
					continue
				}
				if !first {
					b = append(b, ',')
				}
				first = false
				b = strconv.AppendQuote(b, colNames[c])
			}
			b = append(b, ']')
		}
		b = append(b, `,"limit":`...)
		b = strconv.AppendInt(b, int64(q.limit), 10)
	}
	b = append(b, `,"where":`...)
	if q.nLeaves == 1 {
		b = q.leaves[0].appendJSON(b)
	} else {
		if q.any {
			b = append(b, `{"any":[`...)
		} else {
			b = append(b, `{"all":[`...)
		}
		for i := 0; i < int(q.nLeaves); i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = q.leaves[i].appendJSON(b)
		}
		b = append(b, "]}"...)
	}
	return append(b, '}')
}

var facadeCmp = [...]byteslice.Op{cmpEq: byteslice.Eq, cmpLt: byteslice.Lt, cmpGe: byteslice.Ge, cmpBetween: byteslice.Between}

func (l *leaf) filter() byteslice.Filter {
	op := facadeCmp[l.cmp]
	args := []int64{l.lo}
	if l.cmp == cmpBetween {
		args = append(args, l.hi)
	}
	switch l.col {
	case colPrice:
		fs := make([]float64, len(args))
		for i, v := range args {
			fs[i] = cents(v)
		}
		return byteslice.DecimalFilter("price", op, fs...)
	case colCat:
		ss := make([]string, len(args))
		for i, v := range args {
			ss[i] = catName(int(v))
		}
		return byteslice.StringFilter("cat", op, ss...)
	}
	return byteslice.IntFilter(colNames[l.col], op, args...)
}

// expr is the facade expression the server builds for the request.
func (q *query) expr() byteslice.Expr {
	if q.nLeaves == 1 {
		return byteslice.Leaf(q.leaves[0].filter())
	}
	es := make([]byteslice.Expr, q.nLeaves)
	for i := range es {
		es[i] = byteslice.Leaf(q.leaves[i].filter())
	}
	if q.any {
		return byteslice.Any(es...)
	}
	return byteslice.All(es...)
}
