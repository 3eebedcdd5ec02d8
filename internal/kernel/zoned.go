package kernel

import (
	"byteslice/internal/bitvec"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/obs"
)

// Zone-map-aware native scans. A zone map (internal/core/zonemap.go) keeps
// the per-segment min/max of the first byte slice; when that pair already
// decides the predicate — every first byte below the constant's, say — the
// segment's 32 result bits are written without loading a single data byte.
// This is strictly stronger than early stopping, which still pays for the
// first slice: on sorted or clustered columns nearly every segment
// resolves from two metadata bytes, and the scan degenerates to a walk
// over the zone arrays (64 bytes of metadata per 2048 codes — one cache
// line per 64 segments).
//
// Scan, ScanPipelined and ScanMulti consult a column's zone map whenever
// it has one and return the number of segments the zone map resolved, so
// callers (tests, Result.ZoneSkipped, the planner's feedback) can observe
// that pruning actually happened.

// zoneInfo snapshots a column's zone arrays and the predicate's first
// constant bytes for the per-segment decision test.
type zoneInfo struct {
	mn, mx []byte
	c1, c2 byte
	ok     bool
}

func zoneFor(b *core.ByteSlice, p layout.Predicate) zoneInfo {
	mn, mx := b.ZoneBounds()
	if mn == nil {
		return zoneInfo{}
	}
	c1, c2 := b.ZoneFirstBytes(p)
	return zoneInfo{mn: mn, mx: mx, c1: c1, c2: c2, ok: true}
}

// decide classifies one segment: -1 no row matches, +1 all rows match,
// 0 undecided (or no zone map).
//
//bsvet:hotloop
func (z *zoneInfo) decide(op layout.Op, seg int) int {
	if !z.ok {
		return 0
	}
	return core.ZoneDecisionBytes(op, z.mn[seg], z.mx[seg], z.c1, z.c2)
}

// scanZonedRange evaluates the prepared predicate over segments [segLo,
// segHi) with zone-map pruning, writing each segment's result bits like
// scanRange, and returns the number of segments the zone map decided. dh,
// when non-nil, accumulates the depth histogram with zone-resolved
// segments at depth 0.
func (sc *scanner) scanZonedRange(z zoneInfo, segLo, segHi int, out *bitvec.Vector, dh *obs.DepthCounts) int {
	// Hoisting the zone arrays and constants lets ZoneDecisionBytes inline
	// into the loop: the decided case is then two byte loads and a couple of
	// compares per segment, with no call.
	mn, mx := z.mn, z.mx
	op, c1, c2 := sc.op, z.c1, z.c2
	pruned := 0
	for seg := segLo; seg < segHi; seg++ {
		off := seg * core.SegmentSize
		switch core.ZoneDecisionBytes(op, mn[seg], mx[seg], c1, c2) {
		case 1:
			out.SetWord32(off, ^uint32(0))
			pruned++
			if dh != nil {
				dh[0]++
			}
		case -1:
			out.SetWord32(off, 0)
			pruned++
			if dh != nil {
				dh[0]++
			}
		default:
			r, d := sc.segmentDepth(seg)
			out.SetWord32(off, r)
			if dh != nil {
				dh[d]++
			}
		}
	}
	return pruned
}
