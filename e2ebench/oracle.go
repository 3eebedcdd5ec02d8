package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Value kinds of an aggregate answer.
const (
	valNone = iota
	valInt
	valFloat
	valStr
)

// answer is the reference result of one query: what a correct /query
// response carries, in the oracle's domain (cents, dictionary indexes).
type answer struct {
	count int64
	kind  uint8
	ival  int64
	fval  float64
	ids   []int32
	data  [numCols]projected
}

// projected is one projected column: the ids among the returned rows
// whose value is not NULL, ascending, and their values.
type projected struct {
	rows []int32
	vals []int64
}

// scratch holds one oracle worker's bitmaps.
type scratch struct{ bits, tmp []uint64 }

// evaluate answers q over the first n rows of d with plain loops — one
// pass per leaf into a bitmap, then one pass over the matching rows —
// independent of the facade's kernels, plans and encodings.
func evaluate(d *dataset, q *query, n int, s *scratch) *answer {
	words := (n + 63) / 64
	if cap(s.bits) < words {
		s.bits, s.tmp = make([]uint64, words), make([]uint64, words)
	}
	acc, tmp := s.bits[:words], s.tmp[:words]
	for i := 0; i < int(q.nLeaves); i++ {
		dst := acc
		if i > 0 {
			dst = tmp
		}
		leafBits(d, &q.leaves[i], n, dst)
		if i == 0 {
			continue
		}
		for w := range acc {
			if q.any {
				acc[w] |= tmp[w]
			} else {
				acc[w] &= tmp[w]
			}
		}
	}

	a := &answer{}
	for _, w := range acc {
		a.count += int64(bits.OnesCount64(w))
	}
	switch q.op {
	case opSum, opAvg:
		var sum, cnt int64
		vals := d.cols[q.aggCol]
		forEach(acc, func(r int) bool {
			if v := vals[r]; v >= 0 {
				sum += int64(v)
				cnt++
			}
			return true
		})
		switch {
		case q.op == opAvg && cnt > 0:
			a.kind, a.fval = valFloat, float64(sum)/float64(cnt)
			if q.aggCol == colPrice {
				a.fval /= 100
			}
		case q.op == opSum && q.aggCol == colPrice:
			a.kind, a.fval = valFloat, cents(sum)
		case q.op == opSum:
			a.kind, a.ival = valInt, sum
		}
	case opMin, opMax:
		best, found := int64(0), false
		forEach(acc, func(r int) bool {
			v, null := d.value(q.aggCol, r)
			if !null && (!found || (q.op == opMin && v < best) || (q.op == opMax && v > best)) {
				best, found = v, true
			}
			return true
		})
		if found {
			switch q.aggCol {
			case colPrice:
				a.kind, a.fval = valFloat, cents(best)
			case colCat:
				a.kind, a.ival = valStr, best
			default:
				a.kind, a.ival = valInt, best
			}
		}
	case opRows:
		a.ids = rowIDs(d, q, acc)
		sorted := append([]int32(nil), a.ids...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for c := uint8(0); c < numCols; c++ {
			if q.cols&(1<<c) == 0 {
				continue
			}
			p := &a.data[c]
			for _, r := range sorted {
				if v, null := d.value(c, int(r)); !null {
					p.rows = append(p.rows, r)
					p.vals = append(p.vals, v)
				}
			}
		}
	}
	return a
}

// rowIDs returns op rows' ids: the first limit matches in row order, or
// with order_by the limit smallest (value, row) pairs among the matches
// whose sort value is not NULL.
func rowIDs(d *dataset, q *query, acc []uint64) []int32 {
	limit := int(q.limit)
	var ids []int32
	if q.orderBy < 0 {
		forEach(acc, func(r int) bool {
			ids = append(ids, int32(r))
			return len(ids) < limit
		})
		return ids
	}
	type kv struct {
		v int64
		r int32
	}
	var top []kv // ascending by (v, r); rows arrive in ascending order
	forEach(acc, func(r int) bool {
		v, null := d.value(uint8(q.orderBy), r)
		if null || (len(top) == limit && v >= top[limit-1].v) {
			return true
		}
		i := sort.Search(len(top), func(i int) bool { return top[i].v > v })
		if len(top) < limit {
			top = append(top, kv{})
		}
		copy(top[i+1:], top[i:])
		top[i] = kv{v, int32(r)}
		return true
	})
	for _, e := range top {
		ids = append(ids, e.r)
	}
	return ids
}

// leafBits sets bit r of dst when row r < n satisfies l. Every comparison
// is an inclusive range test; NULL prices are -1, below every price
// range, so they never match.
func leafBits(d *dataset, l *leaf, n int, dst []uint64) {
	lo, hi := l.lo, l.hi
	switch l.cmp {
	case cmpEq:
		hi = lo
	case cmpLt:
		lo, hi = 0, lo-1
	case cmpGe:
		hi = math.MaxInt32
	}
	if lo > hi {
		clear(dst)
		return
	}
	// v in [lo, hi] ⇔ v-lo ≤ hi-lo as unsigned; the borrow of the
	// subtraction is the branch-free negation.
	span := uint64(hi - lo)
	vals := d.cols[l.col][:n]
	for w := range dst {
		base := w * 64
		var m uint64
		for j, v := range vals[base:min(base+64, n)] {
			_, borrow := bits.Sub64(span, uint64(int64(v)-lo), 0)
			m |= (borrow ^ 1) << j
		}
		dst[w] = m
	}
}

// forEach calls fn for every set bit in ascending order until fn
// returns false.
func forEach(bm []uint64, fn func(r int) bool) {
	for w, word := range bm {
		for word != 0 {
			if !fn(w*64 + bits.TrailingZeros64(word)) {
				return
			}
			word &= word - 1
		}
	}
}

// wireResp is the part of a /query response the oracle checks.
type wireResp struct {
	Count    int64               `json:"count"`
	Value    *float64            `json:"value"`
	IntValue *int64              `json:"int_value"`
	StrValue *string             `json:"str_value"`
	RowIDs   []int32             `json:"row_ids"`
	Data     map[string]*wireCol `json:"data"`
	Cache    string              `json:"cache"`
}

type wireCol struct {
	Rows     []int32   `json:"rows"`
	Ints     []int64   `json:"ints"`
	Decimals []float64 `json:"decimals"`
	Strings  []string  `json:"strings"`
}

// check compares a decoded response with the reference answer.
func (a *answer) check(q *query, r *wireResp) error {
	if r.Count != a.count {
		return fmt.Errorf("count %d, want %d", r.Count, a.count)
	}
	switch a.kind {
	case valNone:
		if r.Value != nil || r.IntValue != nil || r.StrValue != nil {
			return fmt.Errorf("aggregate has a value, want none")
		}
	case valInt:
		if r.IntValue == nil || *r.IntValue != a.ival {
			return fmt.Errorf("int value %v, want %d", deref(r.IntValue), a.ival)
		}
	case valFloat:
		if r.Value == nil || !closeTo(*r.Value, a.fval) {
			return fmt.Errorf("value %v, want %v", deref(r.Value), a.fval)
		}
	case valStr:
		if r.StrValue == nil || *r.StrValue != catName(int(a.ival)) {
			return fmt.Errorf("string value %v, want %s", deref(r.StrValue), catName(int(a.ival)))
		}
	}
	if !equalIDs(r.RowIDs, a.ids) {
		return fmt.Errorf("row ids %v, want %v", r.RowIDs, a.ids)
	}
	for c := uint8(0); c < numCols; c++ {
		want := &a.data[c]
		got := r.Data[colNames[c]]
		if q.cols&(1<<c) == 0 {
			if got != nil {
				return fmt.Errorf("unrequested column %s projected", colNames[c])
			}
			continue
		}
		if got == nil {
			return fmt.Errorf("column %s not projected", colNames[c])
		}
		if err := checkColumn(c, got, want); err != nil {
			return fmt.Errorf("column %s: %w", colNames[c], err)
		}
	}
	return nil
}

func checkColumn(c uint8, got *wireCol, want *projected) error {
	if !equalIDs(got.Rows, want.rows) {
		return fmt.Errorf("rows %v, want %v", got.Rows, want.rows)
	}
	for i, v := range want.vals {
		var ok bool
		switch c {
		case colPrice:
			ok = i < len(got.Decimals) && closeTo(got.Decimals[i], cents(v))
		case colCat:
			ok = i < len(got.Strings) && got.Strings[i] == catName(int(v))
		default:
			ok = i < len(got.Ints) && got.Ints[i] == v
		}
		if !ok {
			return fmt.Errorf("value %d of row %d wrong, want %d", i, want.rows[i], v)
		}
	}
	return nil
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// closeTo compares decimals up to summation-order rounding.
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

func deref[T any](p *T) any {
	if p == nil {
		return nil
	}
	return *p
}

// checkBody decodes a /query response body and checks it.
func (a *answer) checkBody(q *query, body []byte) (cache string, err error) {
	var r wireResp
	if err := json.Unmarshal(body, &r); err != nil {
		return "", fmt.Errorf("decoding response: %w", err)
	}
	return r.Cache, a.check(q, &r)
}
