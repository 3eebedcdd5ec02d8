// Command e2ebench is the repository's end-to-end benchmark. It mounts a
// seeded table in an in-process bsserve server, drives one of three
// closed-loop workloads over loopback HTTP for a fixed time, checks every
// answer against a naive reference, and prints the end-to-end metrics —
// or, with --trace 1, the per-layer metrics of a traced run — ending with
// one JSON line. See README.md for the workloads and metrics.
//
//	e2ebench --workload adhoc_scan --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
	"unsafe"
)

// setupReps is how many times a run sets the workload up; setup_s is
// the median.
const setupReps = 5

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value; 0 when it is a single reading
}

func main() {
	workload := flag.String("workload", "", "workload name: adhoc_scan, dashboard_cached or live_ingest")
	seed := flag.Uint64("seed", 1, "seed of the generated table and request list")
	seconds := flag.Int("seconds", 20, "length of each timed phase")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	root := flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build/e2ebench")
	flag.Parse()
	s, err := specFor(*workload)
	if err != nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload adhoc_scan|dashboard_cached|live_ingest --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	out := filepath.Join(*root, ".bench_build", "e2ebench")
	res, err := run(s, *seed, *seconds, *traceFlag == 1, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if !res.correct {
		os.Exit(1)
	}
}

// result is what the last output line reports.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

func (r *result) json() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	return string(b), err
}

// run performs one benchmark run and prints its report.
func run(s spec, seed uint64, seconds int, traced bool, out string) (*result, error) {
	work := filepath.Join(out, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	t0 := time.Now()
	probe := bandwidthProbe()
	l := generate(s, seed, s.opsPerSecond*seconds)
	printProvenance(l, seed, seconds, traced, work, probe)
	stepDone("probe and generation", &t0)
	dur := time.Duration(seconds) * time.Second

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	m, setupTimes, err := timedSetups(l, work, setupReps, tr)
	if err != nil {
		return nil, err
	}
	stepDone("set-ups", &t0)
	steal, ticks, ok := cpuTicks()
	ph, gc, err := timedPhase(l, m, 0, dur, nil)
	if err != nil {
		return nil, err
	}
	printSteal(steal, ticks, ok)
	stepDone("timed phase", &t0)
	diskBytes, err := m.diskBytes()
	if err != nil {
		return nil, err
	}
	visibleRows := l.visibleRows(ph)
	heapMB := liveHeapMB() - benchHeldMB(l, ph)
	if err := m.close(); err != nil {
		return nil, err
	}
	oracle := newOracle(l)
	chk := oracle.checkPhase(ph)
	stepDone("reference check", &t0)
	res := &result{attempted: chk.attempted, failed: chk.attempted - chk.ok}
	e2e := chk.report(l, ph)
	e2e = append(e2e,
		metric{name: "setup_s", value: median(setupTimes), unit: "s", n: len(setupTimes)},
		metric{name: "ok_share", value: float64(chk.ok) / float64(chk.attempted), unit: "ratio", n: chk.attempted},
		metric{name: "heap_live_mb", value: heapMB, unit: "MB"},
		metric{name: "bytes_per_row", value: float64(diskBytes) / float64(visibleRows), unit: "B"},
	)
	printMetrics("end_to_end", e2e)
	printMetrics("runtime", gc.metrics())
	res.metrics = e2e

	if traced {
		layers, tchk, err := tracedRun(l, tr, work, dur, ph, chk, gc, oracle, probe, seed)
		if err != nil {
			return nil, err
		}
		res.attempted += tchk.attempted
		res.failed += tchk.attempted - tchk.ok
		stepDone("traced run", &t0)
		printMetrics("per_layer", layers)
		res.metrics = layers
		spanPath := filepath.Join(out, "spans-"+s.name+".jsonl")
		ix := tr.index()
		if err := ix.write(spanPath); err != nil {
			return nil, err
		}
		fmt.Printf("# span file: %s (%d spans)\n", spanPath, len(ix.spans))
	}
	res.correct = res.failed == 0 && res.attempted > 0
	fmt.Printf("# correct=%v attempted=%d failed=%d\n", res.correct, res.attempted, res.failed)
	return res, nil
}

// stepDone prints how long the run's last step took.
func stepDone(step string, since *time.Time) {
	fmt.Printf("# step: %s took %.1fs\n", step, time.Since(*since).Seconds())
	*since = time.Now()
}

// timedPhase runs one untraced (tr == nil) or traced HTTP phase against
// the mounted server, from request first of the list on, sampling the
// runtime's GC counters around it.
func timedPhase(l *reqList, m *mounted, first int, dur time.Duration, tr *tracer) (*phase, *gcDelta, error) {
	h := m.srv.Handler()
	if tr != nil {
		h = tracedHandler(h, tr)
	}
	ln, err := listen(h)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	before := readGC()
	ph := runPhase(ln.addr, l, first, dur, tr)
	gc := readGC().since(before)
	if err := ln.stop(); err != nil {
		return nil, nil, fmt.Errorf("stopping listener: %w", err)
	}
	return ph, gc, nil
}

// visibleRows is the table's row count after the phase: the snapshot
// rows, or the live base plus every batch the phase appended.
func (l *reqList) visibleRows(ph *phase) int {
	rows := l.spec.rows
	for _, o := range ph.outs {
		if l.ops[o.seq].kind == kindAppend && o.status == 200 {
			rows += appendBatch
		}
	}
	return rows
}

func printMetrics(section string, ms []metric) {
	for _, m := range ms {
		if m.n > 0 {
			fmt.Printf("%s %-28s %14.6g %-6s n=%d\n", section, m.name, m.value, m.unit, m.n)
		} else {
			fmt.Printf("%s %-28s %14.6g %s\n", section, m.name, m.value, m.unit)
		}
	}
}

// liveHeapMB is the live heap after a full collection. The second GC
// also frees what the first moved to the sync.Pool victim caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// benchHeldMB is the part of the live heap the benchmark itself holds
// after a phase: the reference dataset, the request list and the phase's
// record with its response arenas. heap_live_mb excludes it, so the
// metric is the program's heap alone.
func benchHeldMB(l *reqList, ph *phase) float64 {
	b := cap(l.queries)*int(unsafe.Sizeof(query{})) + cap(l.ops)*int(unsafe.Sizeof(op{})) + cap(l.warm)*4 +
		cap(ph.outs)*int(unsafe.Sizeof(outcome{})) + cap(ph.errs)*int(unsafe.Sizeof(error(nil)))
	for _, c := range l.data.cols {
		b += cap(c) * 4
	}
	for i := range ph.arenas {
		b += ph.arenas[i].Cap()
	}
	return float64(b) / (1 << 20)
}

// gcSample is a reading of the runtime's GC counters.
type gcSample struct{ gcCPU, totalCPU, cycles float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcSample{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

// gcDelta is the GC work over one phase.
type gcDelta struct{ cpuShare, cycles float64 }

func (g gcSample) since(before gcSample) *gcDelta {
	return &gcDelta{
		cpuShare: share(g.gcCPU-before.gcCPU, g.totalCPU-before.totalCPU),
		cycles:   g.cycles - before.cycles,
	}
}

func (g *gcDelta) metrics() []metric {
	return []metric{
		{name: "runtime.gc_cpu_share", value: g.cpuShare, unit: "ratio"},
		{name: "runtime.gc_cycles", value: g.cycles, unit: "count"},
	}
}

// bandwidthProbe measures the machine's memory bandwidth with one large
// copy per CPU over buffers far larger than any cache, before any
// workload runs. It reports read plus write traffic in GB/s, the median
// of several passes.
func bandwidthProbe() float64 {
	const size = 64 << 20
	src, dst := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src)
	workers := runtime.NumCPU()
	chunk := size / workers
	var rates []float64
	for pass := 0; pass < 7; pass++ {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				copy(dst[w*chunk:(w+1)*chunk], src[w*chunk:(w+1)*chunk])
			}(w)
		}
		wg.Wait()
		rates = append(rates, 2*float64(workers*chunk)/time.Since(start).Seconds()/1e9)
	}
	return median(rates)
}
