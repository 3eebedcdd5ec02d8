package kernel

import (
	"byteslice/internal/bitvec"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/obs"
)

// Native predicate-first evaluation (§3.1.2 strategy 2, on the SWAR path):
// all predicates of a conjunction or disjunction are evaluated per 32-code
// segment before moving to the next segment, short-circuiting inside the
// segment as soon as its result word is decided. Compared with the
// column-first pipeline this never materialises an intermediate bit
// vector and keeps one segment of every column hot in cache, at the cost
// of running the generic (per-segment dispatched) kernels instead of the
// monolithic single-column loops. The cost-based planner in internal/plan
// chooses between the two.
//
// Zone maps compose per predicate: a column with BuildZoneMaps run
// resolves its conjunct from the segment's first-byte bounds whenever they
// decide it, without loading the column's data.

// ScanMulti evaluates the conjunction (disjunct=false) or disjunction
// (disjunct=true) of preds[i] over cols[i] into out. All columns must have
// the same length. It returns the number of per-predicate segment
// evaluations the zone maps resolved. With a Stage, segment and depth
// counts are per predicate evaluation: a conjunction over k columns
// contributes up to k entries per 32-code segment.
func ScanMulti(x Exec, cols []*core.ByteSlice, preds []layout.Predicate, disjunct bool, out *bitvec.Vector) (pruned int, err error) {
	if len(cols) == 0 || len(cols) != len(preds) {
		panic("kernel: ScanMulti needs matching columns and predicates")
	}
	for _, b := range cols {
		if b.Len() != out.Len() {
			panic("kernel: result vector length mismatch")
		}
	}
	scs, zs, bad := prepareMulti(cols, preds)
	return parallelRanges(x, cols[0].Segments(), func(lo, hi int) int {
		if bad != nil {
			panic(bad)
		}
		var d obs.DepthCounts
		dh := x.depths(&d)
		n := scanMultiRange(scs, zs, disjunct, lo, hi, out, dh)
		x.flushDepths(dh, 0)
		return n
	}, addInt)
}

// prepareMulti prepares every conjunct's scanner and zone gate once per
// call; the batches only read them. A predicate that does not fit its
// column panics in prepare: the panic value comes back as bad for every
// batch to re-raise, so it still surfaces as that batch's PanicError, as
// it did when each batch prepared its own scanners.
func prepareMulti(cols []*core.ByteSlice, preds []layout.Predicate) (scs []scanner, zs []zoneInfo, bad any) {
	defer func() { bad = recover() }()
	scs = make([]scanner, len(cols))
	zs = make([]zoneInfo, len(cols))
	for i, b := range cols {
		scs[i] = prepare(b, preds[i])
		zs[i] = zoneFor(b, preds[i])
	}
	return scs, zs, nil
}

// scanMultiRange is the predicate-first segment loop over [segLo, segHi).
// dh, when non-nil, accumulates the per-evaluation depth histogram with
// zone-resolved conjuncts at depth 0.
func scanMultiRange(scs []scanner, zs []zoneInfo, disjunct bool, segLo, segHi int, out *bitvec.Vector, dh *obs.DepthCounts) int {
	pruned := 0
	for seg := segLo; seg < segHi; seg++ {
		var m uint32
		if !disjunct {
			m = ^uint32(0)
		}
		for i := range scs {
			d := zs[i].decide(scs[i].op, seg)
			if d != 0 {
				pruned++
				if dh != nil {
					dh[0]++
				}
			}
			if disjunct {
				// d > 0: every row matches, the segment is all-ones.
				// d < 0: the conjunct contributes nothing.
				if d > 0 {
					m = ^uint32(0)
					break
				}
				if d < 0 {
					continue
				}
				r, depth := scs[i].segmentDepth(seg)
				if dh != nil {
					dh[depth]++
				}
				if m |= r; m == ^uint32(0) {
					break
				}
			} else {
				if d > 0 {
					continue
				}
				if d < 0 {
					m = 0
					break
				}
				r, depth := scs[i].segmentDepth(seg)
				if dh != nil {
					dh[depth]++
				}
				if m &= r; m == 0 {
					break
				}
			}
		}
		out.SetWord32(seg*core.SegmentSize, m)
	}
	return pruned
}
