package kernel

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"byteslice/internal/core"
	"byteslice/internal/obs"
)

// Exec says how one kernel call runs. Every exported fan-out kernel takes
// one and runs under the same guarantees:
//
//   - Batching and cancellation: the unit range (segments, blocks, banks or
//     rows) is processed in batches of batchSegments units; between
//     batches every worker observes Ctx, so a cancelled query stops within
//     one batch (~8K rows per worker) instead of running to completion.
//   - Panic isolation: each batch runs under recover. A panic inside a
//     kernel (a latent bug, a corrupt layout) becomes a *PanicError naming
//     the failing unit range, returned from the calling goroutine instead
//     of killing the process from a worker goroutine no caller can defend.
//   - Statistics: with a non-nil Stage each batch records its wall time,
//     and the kernel adds its segment, depth, byte and row counts.
//
// The first failure wins; the other workers drain at their next batch
// boundary. The zero Exec runs serially on the calling goroutine, is never
// cancelled and records nothing.
type Exec struct {
	Ctx     context.Context // nil: never cancelled
	Workers int             // <= 1: serial on the calling goroutine
	Stage   *obs.Stage      // nil: no statistics
}

// depths returns d when the call records statistics and nil otherwise, so
// range loops skip the per-segment histogram increment when stats are off.
func (x Exec) depths(d *obs.DepthCounts) *obs.DepthCounts {
	if x.Stage == nil {
		return nil
	}
	return d
}

// flushDepths merges a batch's depth histogram (nil when stats are off)
// plus extra metadata bytes into the Stage.
func (x Exec) flushDepths(dh *obs.DepthCounts, extraBytes int64) {
	if dh == nil {
		return
	}
	x.Stage.AddDepths(dh)
	if extraBytes != 0 {
		x.Stage.AddBytes(extraBytes)
	}
}

// batchSegments is the cancellation granularity: 256 segments = 8192 codes
// per check, coarse enough to stay invisible in scan throughput and fine
// enough to stop a multi-million-row scan in microseconds. It is even, so
// batches preserve the word-aligned segment partitioning the bit-vector
// stores rely on.
const batchSegments = 256

// PanicError reports a panic recovered inside a kernel worker, with the
// segment range it was processing.
type PanicError struct {
	SegLo, SegHi int
	Value        any
	Stack        []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("kernel: worker panic in segments [%d,%d): %v", e.SegLo, e.SegHi, e.Value)
}

// fanout coordinates one call's workers: the first error (cancellation or
// panic) stops every worker at its next batch boundary.
type fanout struct {
	ctx     context.Context
	st      *obs.Stage // nil = observability disabled
	stopped atomic.Bool
	mu      sync.Mutex
	err     error
}

func (x *fanout) fail(err error) {
	x.mu.Lock()
	if x.err == nil {
		x.err = err
	}
	x.mu.Unlock()
	x.stopped.Store(true)
}

// stop reports whether workers should cease scheduling new batches,
// folding a freshly-cancelled context into the recorded error.
func (x *fanout) stop() bool {
	if x.stopped.Load() {
		return true
	}
	if x.ctx != nil && x.ctx.Err() != nil {
		x.fail(x.ctx.Err())
		return true
	}
	return false
}

func (x *fanout) finish() error {
	x.stop() // fold in a cancellation that raced the last batch
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.err
}

// protect runs fn over one batch under recover.
func protect[T any](lo, hi int, fn func(segLo, segHi int) T) (out T, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{SegLo: lo, SegHi: hi, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(lo, hi), nil
}

// BatchHook, when non-nil, runs inside every worker batch (under the same
// panic isolation as the kernel itself). It exists purely as a test seam:
// fault-injection tests block in it to model a stuck segment source, or
// panic in it to model a kernel bug, without corrupting real column data.
// Never set outside tests.
var BatchHook func(segLo, segHi int)

// runRange executes fn over [lo, hi) in cancellation batches with panic
// isolation, merging per-batch results via combine.
func runRange[T any](x *fanout, lo, hi int, fn func(segLo, segHi int) T, combine func(T, T) T) T {
	run := fn
	if hook := BatchHook; hook != nil {
		run = func(segLo, segHi int) T {
			hook(segLo, segHi)
			return fn(segLo, segHi)
		}
	}
	if st := x.st; st != nil {
		inner := run
		run = func(segLo, segHi int) T {
			t0 := time.Now()
			v := inner(segLo, segHi)
			st.ObserveBatch(time.Since(t0).Nanoseconds())
			return v
		}
	}
	var acc T
	for b := lo; b < hi; b += batchSegments {
		if x.stop() {
			return acc
		}
		bhi := b + batchSegments
		if bhi > hi {
			bhi = hi
		}
		v, err := protect(b, bhi, run)
		if err != nil {
			x.fail(err)
			return acc
		}
		acc = combine(acc, v)
	}
	return acc
}

// parallelRanges partitions [0, units) into even-aligned chunks across
// x.Workers (inline when one suffices), running fn batch-wise under x with
// panic isolation and merging results via combine. On error the zero T is
// returned: partial results of a failed fan-out are meaningless because an
// arbitrary suffix of the work never ran.
func parallelRanges[T any](x Exec, units int, fn func(lo, hi int) T, combine func(T, T) T) (T, error) {
	f := &fanout{ctx: x.Ctx, st: x.Stage}
	var zero T
	workers := x.Workers
	if workers > units {
		workers = units
	}
	if workers < 1 {
		workers = 1
	}
	if x.Stage != nil {
		x.Stage.SetWorkers(workers)
	}
	if workers == 1 {
		v := runRange(f, 0, units, fn, combine)
		if err := f.finish(); err != nil {
			return zero, err
		}
		return v, nil
	}
	chunk := core.ChunkEven(units, workers)
	partials := make([]T, (units+chunk-1)/chunk)
	var wg sync.WaitGroup
	for i, lo := 0, 0; lo < units; i, lo = i+1, lo+chunk {
		hi := lo + chunk
		if hi > units {
			hi = units
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			partials[i] = runRange(f, lo, hi, fn, combine)
		}(i, lo, hi)
	}
	wg.Wait()
	if err := f.finish(); err != nil {
		return zero, err
	}
	acc := partials[0]
	for _, p := range partials[1:] {
		acc = combine(acc, p)
	}
	return acc, nil
}

// lookupRows runs a row-gather kernel over rows under x. The rows are cut
// into units of core.SegmentSize, so batches, cancellation points and
// worker chunks follow the scan kernels' granularity; gather fills out
// from rows (equal lengths) and returns the column bytes it read.
func lookupRows(x Exec, rows []int32, out []uint32, gather func(rows []int32, out []uint32) int64) error {
	if len(out) != len(rows) {
		panic("kernel: LookupMany output length mismatch")
	}
	units := (len(rows) + core.SegmentSize - 1) / core.SegmentSize
	_, err := parallelRanges(x, units, func(lo, hi int) struct{} {
		lo, hi = lo*core.SegmentSize, min(hi*core.SegmentSize, len(rows))
		bytes := gather(rows[lo:hi], out[lo:hi])
		if x.Stage != nil {
			x.Stage.AddRows(int64(hi-lo), bytes)
		}
		return struct{}{}
	}, dropUnit)
	return err
}

func addInt(a, b int) int { return a + b }

func addUint64(a, b uint64) uint64 { return a + b }

func dropUnit(a, _ struct{}) struct{} { return a }

// extPartial carries one range's extreme candidate through the merge.
type extPartial struct {
	v  uint32
	ok bool
}

func mergeExtreme(isMin bool) func(a, b extPartial) extPartial {
	return func(a, b extPartial) extPartial {
		switch {
		case !a.ok:
			return b
		case !b.ok:
			return a
		case isMin == (b.v < a.v):
			return b
		default:
			return a
		}
	}
}
