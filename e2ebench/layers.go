package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"
)

// probeSpec shapes the ingest probe of the snapshot workloads' traced
// runs: the live_ingest interleaving over a 64Ki-row base, up to and
// including its first merge (probeOps requests).
var probeSpec = spec{name: "live_ingest", table: "probe", clients: 1, rows: 1 << 16}

const probeOps = liveCycle

// facadeProbeSpec shapes the row-materialization probe of workloads
// whose own requests make no OrderBy or no Project* call
// (dashboard_cached never projects; live views support neither, so
// live_ingest's rows queries only list ids): the rows queries among the
// first facadeProbeOps requests of an adhoc_scan list over a 1Mi-row
// table, one full cycle of the ad-hoc op mix.
var facadeProbeSpec = spec{name: "adhoc_scan", table: "fprobe", clients: 1, rows: 1 << 20}

const facadeProbeOps = 600

// facadeProbe records a span named sp (spFacadeOrderBy or
// spFacadeProject) for every rows query of the probe that makes that
// call. The queries themselves are not traced.
func facadeProbe(seed uint64, tr *tracer, sp uint8) error {
	l := generate(facadeProbeSpec, seed, facadeProbeOps)
	tbl, err := l.data.inputs(0, l.spec.rows).table()
	if err != nil {
		return err
	}
	for _, o := range l.ops {
		q := &l.queries[o.query]
		if q.op != opRows || (q.orderBy >= 0) != (sp == spFacadeOrderBy) {
			continue
		}
		res, err := tbl.Query(q.expr(), loneOpts...)
		if err != nil {
			return err
		}
		if err := replayRows(tbl, q, res, -1, -1, tr); err != nil {
			return err
		}
	}
	return nil
}

// overheadRounds is how often the traced run alternates an untraced and
// a traced HTTP phase. trace.overhead_share compares rates measured side
// by side, so the drift of a shared machine mostly cancels.
const overheadRounds = 3

// tracedRun repeats the workload's HTTP phase on a fresh set-up,
// alternating untraced phases with phases that have the tracing wrappers
// on, each dur/(2·overheadRounds) long and continuing the request list,
// so the traced run's HTTP phases together last dur; then
// it replays those requests in process and derives the per-layer
// metrics. untraced is the run's untraced phase with its verdict and GC
// counters.
func tracedRun(l *reqList, tr *tracer, work string, dur time.Duration, untraced *phase, uchk *checked,
	gc *gcDelta, o *oracle, probeGBps float64, seed uint64) ([]metric, *checked, error) {
	in := l.data.inputs(0, l.spec.rows)
	m, _, err := setup(l, in, work, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("traced set-up: %w", err)
	}
	in = nil
	tchk := &checked{}
	var rates [2]struct {
		requests int
		secs     float64
	}
	next := 0
	for r := 0; r < 2*overheadRounds; r++ {
		var ptr *tracer
		if r%2 == 1 {
			ptr = tr
		}
		ph, _, err := timedPhase(l, m, next, dur/(2*overheadRounds), ptr)
		if err != nil {
			return nil, nil, err
		}
		next = ph.end
		c := o.checkPhase(ph)
		tchk.attempted += c.attempted
		tchk.ok += c.ok
		rates[r%2].requests += len(ph.outs)
		rates[r%2].secs += ph.elapsed.Seconds()
	}

	var st, ingest *replayStats
	if l.spec.name == "live_ingest" {
		st, err = replayLive(l, filepath.Join(work, "replay"), tr, next, dur/2, true)
		ingest = st
	} else {
		st, err = replaySnapshot(l, m.path, tr, next, dur/2)
		if err == nil {
			probe := generate(probeSpec, seed, probeOps)
			ingest, err = replayLive(probe, filepath.Join(work, "probe"), tr, len(probe.ops), dur/2, false)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	if err := m.close(); err != nil {
		return nil, nil, err
	}
	for _, sp := range []uint8{spFacadeOrderBy, spFacadeProject} {
		if len(tr.index().durations(sp)) > 0 {
			continue
		}
		if err := facadeProbe(seed, tr, sp); err != nil {
			return nil, nil, fmt.Errorf("%s probe: %w", spanNames[sp], err)
		}
		fmt.Printf("# %s_ms comes from the rows queries of a %d-row adhoc_scan-shaped probe\n", spanNames[sp], facadeProbeSpec.rows)
	}
	fmt.Printf("# traced run: %d untraced requests in %.3fs alternating with %d traced in %.3fs; replayed %d requests in process\n",
		rates[0].requests, rates[0].secs, rates[1].requests, rates[1].secs, st.requests)

	ix := tr.index()
	durMetric := func(name string, sp uint8, perUnit float64, unit string) metric {
		d := ix.durations(sp)
		return metric{name: name, value: median(scaled(d, perUnit)), unit: unit, n: len(d)}
	}
	transport := ix.selfTimes(spClient)
	query := durMetric("facade.query_ms", spFacadeQuery, 1e6, "ms")
	if l.spec.name == "live_ingest" {
		// On a live mount the facade's query entry point is Pinned.Query.
		query = durMetric("facade.query_ms", spIngestQuery, 1e6, "ms")
	}
	appendMetric := durMetric("ingest.append_us_per_row", spIngestAppend, 1e3*appendBatch, "us")
	hits, queries := 0, 0
	for i, out := range untraced.outs {
		if l.ops[out.seq].kind == kindQuery {
			queries++
			if uchk.cache[i] == cacheHit {
				hits++
			}
		}
	}
	untracedQPS := float64(rates[0].requests) / rates[0].secs
	tracedQPS := float64(rates[1].requests) / rates[1].secs
	gbps := share(float64(st.kernelBytes), float64(st.kernelWallNs))
	ms := []metric{
		{name: "serve.transport_us", value: median(scaled(transport, 1e3)), unit: "us", n: len(transport)},
		durMetric("serve.decode_us", spDecode, 1e3, "us"),
		durMetric("serve.do_hit_us", spDoHit, 1e3, "us"),
		durMetric("serve.do_miss_ms", spDoMiss, 1e6, "ms"),
		durMetric("serve.encode_us", spEncode, 1e3, "us"),
		{name: "serve.cache_hit_share", value: share(float64(hits), float64(queries)), unit: "ratio", n: queries},
		{name: "serve.self_share", value: share(float64(st.doMissNs-st.facadeNs), float64(st.doMissNs)), unit: "ratio"},
		query,
		durMetric("facade.aggregate_ms", spFacadeAggregate, 1e6, "ms"),
		durMetric("facade.orderby_ms", spFacadeOrderBy, 1e6, "ms"),
		durMetric("facade.project_ms", spFacadeProject, 1e6, "ms"),
		{name: "kernel.bytes_per_row", value: share(float64(st.kernelBytes), float64(st.kernelRows)), unit: "B"},
		{name: "kernel.zone_skip_share", value: share(float64(st.zoneSkipped), float64(st.segmentVisits)), unit: "ratio"},
		{name: "kernel.gbps", value: gbps, unit: "GB/s"},
		{name: "kernel.roofline_share", value: share(gbps, probeGBps), unit: "ratio"},
		appendMetric,
		{name: "ingest.wal_bytes_per_row", value: share(float64(ingest.walBytes), float64(ingest.walRows)), unit: "B", n: int(ingest.walRows)},
		durMetric("ingest.merge_ms", spIngestMerge, 1e6, "ms"),
		durMetric("ingest.live_query_ms", spIngestQuery, 1e6, "ms"),
		{name: "ingest.delta_rows_mean", value: mean(ingest.deltaRows), unit: "rows", n: len(ingest.deltaRows)},
		durMetric("persist.save_ms", spPersistSave, 1e6, "ms"),
		durMetric("persist.load_ms", spPersistLoad, 1e6, "ms"),
		{name: "runtime.gc_cpu_share", value: gc.cpuShare, unit: "ratio"},
		{name: "runtime.gc_cycles", value: gc.cycles, unit: "count"},
		{name: "trace.overhead_share", value: 1 - tracedQPS/untracedQPS, unit: "ratio"},
		{name: "mem.probe_gbps", value: probeGBps, unit: "GB/s"},
	}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, nil, fmt.Errorf("per-layer metric %s has no samples", m.name)
		}
	}
	runtime.GC()
	return ms, tchk, nil
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return float64(sum(xs)) / float64(len(xs))
}
