package kernel

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"hash/fnv"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"byteslice/internal/bitvec"
	"byteslice/internal/compress"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/layout/hbp"
	"byteslice/internal/obs"
)

// par runs a kernel on w workers with no context and no statistics.
func par(w int) Exec { return Exec{Workers: w} }

// must, must1 and must2 unwrap kernel results in tests where no context
// is set, so the only possible error is a recovered worker panic.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func must1[T any](v T, err error) T {
	must(err)
	return v
}

func must2[T, U any](v T, u U, err error) (T, U) {
	must(err)
	return v, u
}

// execColumn builds a native column large enough that every worker has
// many cancellation batches to run.
func execColumn(t *testing.T, n int) *core.ByteSlice {
	t.Helper()
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = uint32(i % 1000)
	}
	return core.New(codes, 10, nil)
}

func execPred(t *testing.T, b *core.ByteSlice) layout.Predicate {
	t.Helper()
	return layout.Predicate{Op: layout.Lt, C1: 500}
}

// entryPoint drives one exported kernel entry point under an Exec. run
// returns a digest of everything the call produced (result bits, counts,
// aggregates, gathered codes), so two runs can be compared for identity.
type entryPoint struct {
	name string
	run  func(x Exec) (string, error)
}

// digest fingerprints a bit vector's set rows.
func digest(v *bitvec.Vector) string {
	h := fnv.New64a()
	for _, r := range v.Positions(nil) {
		h.Write([]byte{byte(r), byte(r >> 8), byte(r >> 16), byte(r >> 24)})
	}
	return fmt.Sprintf("%d/%x", v.Count(), h.Sum64())
}

// entryPoints builds the contract table over one data set. The column
// spans several cancellation batches per worker and ends in a partial
// segment; values cluster per segment so zone maps and block bounds
// resolve part of the scans.
func entryPoints() []entryPoint {
	const k = 12
	n := 8*batchSegments*core.SegmentSize + 9
	codes := make([]uint32, n)
	vals := make([]uint32, n)
	for i := range codes {
		codes[i] = uint32((i/core.SegmentSize*37)%4096) ^ uint32(i%3)
		vals[i] = uint32(i*7919) % 65536
	}
	b := core.New(codes, k, nil)
	bz := core.New(codes, k, nil)
	bz.BuildZoneMaps()
	v := core.New(vals, 16, nil)
	h := hbp.New(codes, k, nil)
	cc := compress.New(codes, k, nil)
	p := layout.Predicate{Op: layout.Lt, C1: 1500}
	prev := bitvec.New(n)
	must1(Scan(Exec{}, b, layout.Predicate{Op: layout.Gt, C1: 800}, prev))
	rows := make([]int32, 0, n/3)
	for i := 0; i < n; i += 3 {
		rows = append(rows, int32(i))
	}

	scanOut := func(pruned int, out *bitvec.Vector) string { return fmt.Sprint(pruned, " ", digest(out)) }
	fresh := func() *bitvec.Vector {
		out := bitvec.New(n)
		out.Fill() // stale bits must be overwritten
		return out
	}
	scan := func(col *core.ByteSlice) func(x Exec) (string, error) {
		return func(x Exec) (string, error) {
			out := fresh()
			pruned, err := Scan(x, col, p, out)
			return scanOut(pruned, out), err
		}
	}
	pipelined := func(col *core.ByteSlice, negate bool) func(x Exec) (string, error) {
		return func(x Exec) (string, error) {
			out := fresh()
			pruned, err := ScanPipelined(x, col, p, prev, negate, out)
			return scanOut(pruned, out), err
		}
	}
	gather := func(f func(x Exec, out []uint32) error) func(x Exec) (string, error) {
		return func(x Exec) (string, error) {
			out := make([]uint32, len(rows))
			err := f(x, out)
			return fmt.Sprint(out), err
		}
	}
	return []entryPoint{
		{"Scan", scan(b)},
		{"Scan/zoned", scan(bz)},
		{"ScanPipelined", pipelined(b, false)},
		{"ScanPipelined/zoned", pipelined(bz, false)},
		{"ScanPipelined/negate", pipelined(bz, true)},
		{"ScanMulti", func(x Exec) (string, error) {
			out := fresh()
			preds := []layout.Predicate{p, {Op: layout.Ge, C1: 300}}
			pruned, err := ScanMulti(x, []*core.ByteSlice{bz, b}, preds, false, out)
			return scanOut(pruned, out), err
		}},
		{"ScanMulti/disjunct", func(x Exec) (string, error) {
			out := fresh()
			preds := []layout.Predicate{p, {Op: layout.Eq, C1: 4000}}
			pruned, err := ScanMulti(x, []*core.ByteSlice{bz, bz}, preds, true, out)
			return scanOut(pruned, out), err
		}},
		{"Sum", func(x Exec) (string, error) {
			sum, count, err := Sum(x, v, prev)
			return fmt.Sprint(sum, count), err
		}},
		{"Extreme", func(x Exec) (string, error) {
			mn, ok, err := Extreme(x, v, prev, true)
			return fmt.Sprint(mn, ok), err
		}},
		{"ScanSum", func(x Exec) (string, error) {
			sum, count, err := ScanSum(x, bz, p, v)
			return fmt.Sprint(sum, count), err
		}},
		{"ScanExtreme", func(x Exec) (string, error) {
			mx, ok, err := ScanExtreme(x, b, p, v, false)
			return fmt.Sprint(mx, ok), err
		}},
		{"LookupMany", gather(func(x Exec, out []uint32) error { return LookupMany(x, b, rows, out) })},
		{"ScanHBP", func(x Exec) (string, error) {
			out := fresh()
			err := ScanHBP(x, h, p, out)
			return digest(out), err
		}},
		{"LookupManyHBP", gather(func(x Exec, out []uint32) error { return LookupManyHBP(x, h, rows, out) })},
		{"ScanCompressed", func(x Exec) (string, error) {
			out := fresh()
			pruned, err := ScanCompressed(x, cc, p, out)
			return scanOut(pruned, out), err
		}},
		{"SumCompressed", func(x Exec) (string, error) {
			sum, count, err := SumCompressed(x, cc, prev)
			return fmt.Sprint(sum, count), err
		}},
		{"ExtremeCompressed", func(x Exec) (string, error) {
			mn, ok, err := ExtremeCompressed(x, cc, prev, true)
			return fmt.Sprint(mn, ok), err
		}},
		{"ExtremeCompressed/nomask", func(x Exec) (string, error) {
			mx, ok, err := ExtremeCompressed(x, cc, nil, false)
			return fmt.Sprint(mx, ok), err
		}},
		{"LookupManyCompressed", gather(func(x Exec, out []uint32) error { return LookupManyCompressed(x, cc, rows, out) })},
	}
}

// pointOps are the exported functions that are not Exec entry points:
// single-row lookups have no batches, workers or statistics.
var pointOps = map[string]bool{"Lookup": true, "LookupHBP": true}

// exportedFuncs parses the package's non-test sources and returns its
// exported top-level functions, with whether each takes Exec first.
func exportedFuncs(t *testing.T) map[string]bool {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() {
				continue
			}
			takesExec := false
			if ps := fd.Type.Params.List; len(ps) > 0 {
				id, ok := ps[0].Type.(*ast.Ident)
				takesExec = ok && id.Name == "Exec"
			}
			funcs[fd.Name.Name] = takesExec
		}
	}
	return funcs
}

// TestEntryPointsCoverAPI fails when an exported kernel function is
// neither in the contract table nor a declared point operation, or when
// an entry point does not take Exec.
func TestEntryPointsCoverAPI(t *testing.T) {
	covered := map[string]bool{}
	for _, ep := range entryPoints() {
		covered[strings.SplitN(ep.name, "/", 2)[0]] = true
	}
	funcs := exportedFuncs(t)
	var names []string
	for name := range funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch {
		case pointOps[name]:
		case !covered[name]:
			t.Errorf("exported kernel %s is missing from the entry-point contract table", name)
		case !funcs[name]:
			t.Errorf("entry point %s does not take Exec as its first parameter", name)
		}
	}
	for name := range covered {
		if _, ok := funcs[name]; !ok {
			t.Errorf("contract table names %s, which the package does not export", name)
		}
	}
}

// TestEntryPoints checks the execution contract of every entry point:
// statistics and worker count never change a result, a context cancelled
// before the call returns context.Canceled, and a panicking batch returns
// a *PanicError from the calling goroutine.
func TestEntryPoints(t *testing.T) {
	for _, ep := range entryPoints() {
		t.Run(ep.name, func(t *testing.T) {
			want, err := ep.run(Exec{})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				if got := must1(ep.run(Exec{Workers: workers})); got != want {
					t.Errorf("workers=%d: %s, serial %s", workers, got, want)
				}
				st := obs.NewQuery().NewStage(ep.name, "test")
				if got := must1(ep.run(Exec{Workers: workers, Stage: st})); got != want {
					t.Errorf("workers=%d with stage: %s, without %s", workers, got, want)
				}
				if s := st.Snapshot(); s.Batches == 0 || s.BytesTouched == 0 {
					t.Errorf("workers=%d: stage recorded %d batches, %d bytes", workers, s.Batches, s.BytesTouched)
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := ep.run(Exec{Ctx: ctx, Workers: 4}); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled context: err = %v, want context.Canceled", err)
			}

			BatchHook = func(int, int) { panic("injected kernel bug") }
			defer func() { BatchHook = nil }()
			var pe *PanicError
			if _, err := ep.run(Exec{Workers: 4}); !errors.As(err, &pe) {
				t.Errorf("panicking batch: err = %v, want *PanicError", err)
			}
		})
	}
}

func TestCtxScanMatchesSerial(t *testing.T) {
	b := execColumn(t, 10_000)
	p := execPred(t, b)
	want := bitvec.New(b.Len())
	must1(Scan(Exec{}, b, p, want))
	got := bitvec.New(b.Len())
	if _, err := Scan(Exec{Ctx: context.Background(), Workers: 4}, b, p, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.Len(); i++ {
		if got.Get(i) != want.Get(i) {
			t.Fatalf("row %d: ctx scan %v, serial %v", i, got.Get(i), want.Get(i))
		}
	}
}

// TestCtxAggregates: cancellation holds for the aggregate, fused, multi-
// predicate and lookup kernels, not just the plain scan, and with a live
// context they agree with the serial run.
func TestCtxAggregates(t *testing.T) {
	b := execColumn(t, 10_000)
	p := execPred(t, b)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := Exec{Ctx: ctx, Workers: 4}

	if _, _, err := Sum(x, b, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sum: %v", err)
	}
	if _, _, err := Extreme(x, b, nil, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("Extreme: %v", err)
	}
	if _, _, err := ScanSum(x, b, p, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScanSum: %v", err)
	}
	if _, _, err := ScanExtreme(x, b, p, b, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScanExtreme: %v", err)
	}
	out := bitvec.New(b.Len())
	if _, err := ScanMulti(x, []*core.ByteSlice{b}, []layout.Predicate{p}, false, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScanMulti: %v", err)
	}
	rows := []int32{0, 1, 2}
	codes := make([]uint32, len(rows))
	if err := LookupMany(x, b, rows, codes); !errors.Is(err, context.Canceled) {
		t.Fatalf("LookupMany: %v", err)
	}

	live := Exec{Ctx: context.Background(), Workers: 4}
	sum, n, err := Sum(live, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantSum, wantN := must2(Sum(Exec{}, b, nil))
	if sum != wantSum || n != wantN {
		t.Fatalf("Sum = (%d, %d), want (%d, %d)", sum, n, wantSum, wantN)
	}
	v, ok, err := ScanExtreme(live, b, p, b, false)
	if err != nil {
		t.Fatal(err)
	}
	wantV, wantOK, err := ScanExtreme(Exec{}, b, p, b, false)
	if err != nil {
		t.Fatal(err)
	}
	if v != wantV || ok != wantOK {
		t.Fatalf("ScanExtreme = (%d, %v), want (%d, %v)", v, ok, wantV, wantOK)
	}
}

// TestCancelStopsEarly blocks every worker batch on a fake segment source
// that never delivers until the context is cancelled, then asserts the scan
// returns the context error after only the in-flight batches ran —
// cancellation at batch granularity, not after the full column.
func TestCancelStopsEarly(t *testing.T) {
	b := execColumn(t, 64*batchSegments*core.SegmentSize) // 64 batches minimum
	p := execPred(t, b)
	out := bitvec.New(b.Len())

	ctx, cancel := context.WithCancel(context.Background())
	var batches atomic.Int32
	started := make(chan struct{}, 1)
	BatchHook = func(segLo, segHi int) {
		batches.Add(1)
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done() // the stuck segment source: blocks until cancel
	}
	defer func() { BatchHook = nil }()

	done := make(chan error, 1)
	workers := 4
	go func() {
		_, err := Scan(Exec{Ctx: ctx, Workers: workers}, b, p, out)
		done <- err
	}()
	<-started
	cancel()
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Only the batches already in flight when cancel hit may have run: at
	// most one per worker, far below the total.
	if n := int(batches.Load()); n > workers {
		t.Fatalf("%d batches ran after cancellation, want <= %d", n, workers)
	}
}

func TestCancelledBeforeStart(t *testing.T) {
	b := execColumn(t, 10_000)
	p := execPred(t, b)
	out := bitvec.New(b.Len())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var batches atomic.Int32
	BatchHook = func(int, int) { batches.Add(1) }
	defer func() { BatchHook = nil }()
	if _, err := Scan(Exec{Ctx: ctx, Workers: 4}, b, p, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := batches.Load(); n != 0 {
		t.Fatalf("%d batches ran under a pre-cancelled context", n)
	}
}

// TestWorkerPanicBecomesError injects a panic into one worker batch and
// asserts it surfaces as a *PanicError naming the failing segment range,
// from the calling goroutine — not a process crash.
func TestWorkerPanicBecomesError(t *testing.T) {
	b := execColumn(t, 8*batchSegments*core.SegmentSize)
	p := execPred(t, b)
	out := bitvec.New(b.Len())
	BatchHook = func(segLo, segHi int) {
		if segLo == batchSegments { // second batch of the first worker
			panic("injected kernel bug")
		}
	}
	defer func() { BatchHook = nil }()
	_, err := Scan(Exec{Ctx: context.Background(), Workers: 2}, b, p, out)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.SegLo != batchSegments || pe.SegHi != 2*batchSegments {
		t.Fatalf("failing range [%d,%d), want [%d,%d)", pe.SegLo, pe.SegHi, batchSegments, 2*batchSegments)
	}
	if !strings.Contains(pe.Error(), "injected kernel bug") {
		t.Fatalf("error %q does not name the panic value", pe.Error())
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack trace")
	}
}

// TestCtxZonedScans: the kernels take the zoned loops exactly when the
// column has zone maps, report prune counts there, and still observe the
// context.
func TestCtxZonedScans(t *testing.T) {
	plain := execColumn(t, 10_000)
	b := execColumn(t, 10_000)
	b.BuildZoneMaps()
	p := execPred(t, b)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := bitvec.New(b.Len())
	if _, err := Scan(Exec{Ctx: ctx, Workers: 4}, b, p, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("zoned Scan: %v", err)
	}
	prev := bitvec.New(b.Len())
	prev.Fill()
	if _, err := ScanPipelined(Exec{Ctx: ctx, Workers: 4}, b, p, prev, false, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("zoned ScanPipelined: %v", err)
	}

	want := bitvec.New(b.Len())
	if pruned := must1(Scan(par(4), plain, p, want)); pruned != 0 {
		t.Fatalf("scan without zone maps pruned %d segments", pruned)
	}
	if pruned := must1(Scan(par(4), b, p, out)); pruned == 0 {
		t.Fatal("zoned scan pruned nothing on cyclic data")
	}
	if !out.Equal(want) {
		t.Fatal("zoned scan differs from the scan without zone maps")
	}
	if pruned := must1(ScanPipelined(par(4), b, p, prev, false, out)); pruned == 0 || !out.Equal(want) {
		t.Fatalf("zoned pipelined scan: pruned %d, equal %v", pruned, out.Equal(want))
	}
}

// TestScanMultiAllocsPerCall: the predicate-first kernel prepares its
// per-column scanners once per call, so a serial two-column ScanMulti
// allocates the same at 4 cancellation batches as at 64. A predicate
// outside its column's domain still fails as the batch's PanicError.
func TestScanMultiAllocsPerCall(t *testing.T) {
	allocs := func(batches int) float64 {
		b := execColumn(t, batches*batchSegments*core.SegmentSize)
		cols := []*core.ByteSlice{b, b}
		preds := []layout.Predicate{{Op: layout.Lt, C1: 500}, {Op: layout.Gt, C1: 100}}
		out := bitvec.New(b.Len())
		return testing.AllocsPerRun(5, func() { must1(ScanMulti(Exec{}, cols, preds, false, out)) })
	}
	if few, many := allocs(4), allocs(64); few != many {
		t.Fatalf("ScanMulti allocates %v times over 4 batches but %v over 64", few, many)
	}

	b := execColumn(t, 1000)
	var pe *PanicError
	bad := []layout.Predicate{{Op: layout.Lt, C1: 1 << 12}}
	if _, err := ScanMulti(Exec{Workers: 2}, []*core.ByteSlice{b}, bad, false, bitvec.New(b.Len())); !errors.As(err, &pe) {
		t.Fatalf("out-of-domain predicate: err = %v, want *PanicError", err)
	}
}
