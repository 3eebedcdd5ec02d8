// Package byteslice is a main-memory column-store storage engine built
// around the ByteSlice layout of Feng, Lo, Kao and Xu (SIGMOD 2015):
// a byte-level columnar format whose scans exploit 32-way SIMD parallelism
// with byte-granular early stopping, and whose lookups stay as cheap as
// horizontally packed formats.
//
// The package offers:
//
//   - typed columns (integers, fixed-precision decimals, dictionary-encoded
//     strings) that are order-preservingly encoded into fixed-width codes
//     and formatted in one of four storage layouts: ByteSlice (the paper's
//     contribution, the default), and the Bit-Packed, VBP and HBP baselines;
//   - predicate scans (<, ≤, >, ≥, =, ≠, BETWEEN) returning result bit
//     vectors, with conjunctions and disjunctions evaluated with the
//     paper's pipelined strategies;
//   - record lookups decoding matching rows back to native values;
//   - an optional execution profile recording the modelled instruction,
//     branch and memory behaviour of every operation on the emulated
//     SIMD engine (see DESIGN.md for the cost model).
//
// # Quick example
//
//	temp, _ := byteslice.NewIntColumn("temp_c", temps, -40, 60)
//	city, _ := byteslice.NewStringColumn("city", cities)
//	tbl, _ := byteslice.NewTable(temp, city)
//	res, _ := tbl.Filter([]byteslice.Filter{
//		byteslice.IntFilter("temp_c", byteslice.Gt, 30),
//		byteslice.StringFilter("city", byteslice.Eq, "Melbourne"),
//	})
//	rows := res.Rows()
package byteslice

import (
	"fmt"

	"byteslice/internal/cache"
	"byteslice/internal/compress"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/layout/hbp"
	"byteslice/internal/layouts"
	"byteslice/internal/perf"
	"byteslice/internal/plan"
	"byteslice/internal/simd"
)

// Op is a comparison operator for filters.
type Op = layout.Op

// Comparison operators. Between is inclusive on both ends.
const (
	Lt      = layout.Lt
	Le      = layout.Le
	Gt      = layout.Gt
	Ge      = layout.Ge
	Eq      = layout.Eq
	Ne      = layout.Ne
	Between = layout.Between
)

// Format names a storage layout.
type Format string

// The four storage layouts of the paper's evaluation, plus the compressed
// ByteSlice variant (frame-of-reference/delta blocks with scan-fused
// decode; see WithCompression).
const (
	FormatByteSlice  Format = "ByteSlice"
	FormatBitPacked  Format = "BitPacked"
	FormatVBP        Format = "VBP"
	FormatHBP        Format = "HBP"
	FormatByteSliceC Format = compress.Name
)

// Formats lists all supported formats.
func Formats() []Format {
	out := make([]Format, 0, len(layouts.Names))
	for _, n := range layouts.Names {
		out = append(out, Format(n))
	}
	return out
}

func builderFor(f Format) (layout.Builder, error) {
	if f == "" {
		f = FormatByteSlice
	}
	b, ok := layouts.Builders[string(f)]
	if !ok {
		return nil, fmt.Errorf("byteslice: unknown format %q", f)
	}
	return b, nil
}

// The profile and strategy types are the engine's and the planner's own,
// so the facade, the experiments and the planner share one of each.
type (
	// Profile records the modelled execution metrics of operations run
	// with it: instructions, branch mispredictions, cache behaviour, and
	// the derived cycle count of the emulated Haswell-class core. It is
	// the engine's profile type (perf.Profile), so a caller that profiles
	// a query can read per-level cache statistics (Cache.Stats()) as well
	// as the summary methods Cycles, Instructions, Reset and String.
	Profile = perf.Profile

	// Strategy selects how multi-column filters are evaluated (§3.1.2 of
	// the paper). It is the planner's strategy type (plan.Strategy), so
	// Result.Explain and the query statistics name strategies the same
	// way callers choose them.
	Strategy = plan.Strategy
)

// NewProfile returns a profile with cache modelling enabled.
func NewProfile() *Profile { return perf.NewProfile() }

// engine returns the modelled SIMD engine recording into p; a nil profile
// counts into a throwaway cache-less profile.
func engine(p *Profile) *simd.Engine {
	if p == nil {
		return simd.New(perf.NewProfileNoCache())
	}
	return simd.New(p)
}

// Evaluation strategies.
const (
	// StrategyAuto lets the cost-based planner choose on the native path
	// and picks column-first on the modelled (WithProfile) path, matching
	// the paper's setup.
	StrategyAuto = plan.Auto
	// StrategyBaseline evaluates every predicate independently and
	// combines result bit vectors.
	StrategyBaseline = plan.Baseline
	// StrategyColumnFirst pipelines each predicate's condensed result into
	// the next column's scan (Algorithm 2).
	StrategyColumnFirst = plan.ColumnFirst
	// StrategyPredicateFirst evaluates all predicates per 32-row segment,
	// pipelining the uncondensed bank masks (ByteSlice only).
	StrategyPredicateFirst = plan.PredicateFirst
)

// arena is the process-wide simulated address allocator: every column built
// by this package lives in its own region, as it would in a real process.
var arena = cache.NewArena(64)

// byteSliceOf returns the concrete ByteSlice layout of a column, if any.
func byteSliceOf(l layout.Layout) (*core.ByteSlice, bool) {
	b, ok := l.(*core.ByteSlice)
	return b, ok
}

// compressedOf returns the concrete compressed layout of a column, if any.
func compressedOf(l layout.Layout) (*compress.Column, bool) {
	c, ok := l.(*compress.Column)
	return c, ok
}

// hbpOf returns the concrete HBP layout of a column, if any.
func hbpOf(l layout.Layout) (*hbp.HBP, bool) {
	h, ok := l.(*hbp.HBP)
	return h, ok
}
