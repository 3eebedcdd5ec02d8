package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
)

// oracle memoises reference answers by query index: a query's answer
// depends only on the query and the rows visible to it, and each query
// of a list is issued at one visible row count.
type oracle struct {
	l       *reqList
	answers []*answer
}

func newOracle(l *reqList) *oracle {
	return &oracle{l: l, answers: make([]*answer, len(l.queries))}
}

// prepare computes, on every CPU, the answers the phase's queries need
// that are not known yet.
func (o *oracle) prepare(ph *phase) {
	var todo []int32
	seen := make([]bool, len(o.l.queries))
	for _, out := range ph.outs {
		op := o.l.ops[out.seq]
		if op.kind == kindQuery && o.answers[op.query] == nil && !seen[op.query] {
			seen[op.query] = true
			todo = append(todo, out.seq)
		}
	}
	parallel(len(todo), func(next func() (int, bool)) {
		s := &scratch{}
		for i, ok := next(); ok; i, ok = next() {
			op := o.l.ops[todo[i]]
			o.answers[op.query] = evaluate(o.l.data, &o.l.queries[op.query], int(op.rows), s)
		}
	})
}

// parallel runs worker on every CPU; next hands out the indexes 0..n-1.
func parallel(n int, worker func(next func() (int, bool))) {
	var mu sync.Mutex
	i := 0
	next := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if i >= n {
			return 0, false
		}
		i++
		return i - 1, true
	}
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(next)
		}()
	}
	wg.Wait()
}

// Cache outcomes of a query response.
const (
	cacheOther = iota
	cacheHit
	cacheMiss
)

// checked is the verdict on one phase.
type checked struct {
	attempted, ok int
	cache         []uint8 // per outcome
	failures      []string
}

// checkPhase checks every outcome of ph after the phase: a 200 status,
// then for queries the body against the oracle, for appends the
// acknowledged row count. Transport failures count as attempted and
// failed.
func (o *oracle) checkPhase(ph *phase) *checked {
	o.prepare(ph)
	c := &checked{attempted: len(ph.outs) + len(ph.errs), cache: make([]uint8, len(ph.outs))}
	errs := make([]error, len(ph.outs))
	parallel(len(ph.outs), func(next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			c.cache[i], errs[i] = o.checkOne(ph, &ph.outs[i])
		}
	})
	for i, err := range errs {
		if err == nil {
			c.ok++
			continue
		}
		if len(c.failures) < 5 {
			c.failures = append(c.failures, fmt.Sprintf("request %d: %v", ph.outs[i].seq, err))
		}
	}
	for _, err := range ph.errs {
		if len(c.failures) < 5 {
			c.failures = append(c.failures, err.Error())
		}
	}
	for _, f := range c.failures {
		fmt.Fprintln(os.Stderr, "e2ebench: wrong answer:", f)
	}
	return c
}

func (o *oracle) checkOne(ph *phase, out *outcome) (uint8, error) {
	body := ph.body(out)
	if out.status != 200 {
		return cacheOther, fmt.Errorf("status %d: %s", out.status, body)
	}
	op := o.l.ops[out.seq]
	switch op.kind {
	case kindAppend:
		var ack struct{ Appended int }
		if err := json.Unmarshal(body, &ack); err != nil {
			return cacheOther, fmt.Errorf("decoding append ack: %w", err)
		}
		if ack.Appended != appendBatch {
			return cacheOther, fmt.Errorf("appended %d rows, want %d", ack.Appended, appendBatch)
		}
		return cacheOther, nil
	case kindMerge:
		return cacheOther, nil
	}
	cache, err := o.answers[op.query].checkBody(&o.l.queries[op.query], body)
	switch cache {
	case "hit":
		return cacheHit, err
	case "miss":
		return cacheMiss, err
	}
	return cacheOther, err
}

// report derives the gated end-to-end metrics of an untraced phase that
// come from its requests (qps and median query latency), printing the
// class shares, per-class latencies and tail beside them.
func (c *checked) report(l *reqList, ph *phase) []metric {
	var byKind [len(kindPaths)][]int64
	var byOp [len(opNames)][]int64
	var hits, misses int
	for i, o := range ph.outs {
		op := l.ops[o.seq]
		byKind[op.kind] = append(byKind[op.kind], o.latNs)
		if op.kind == kindQuery {
			byOp[l.queries[op.query].op] = append(byOp[l.queries[op.query].op], o.latNs)
		}
		switch c.cache[i] {
		case cacheHit:
			hits++
		case cacheMiss:
			misses++
		}
	}
	queries := byKind[kindQuery]
	fmt.Printf("class cache_hit_share  %.4f (%d of %d queries)\n", share(float64(hits), float64(len(queries))), hits, len(queries))
	fmt.Printf("class cache_miss_share %.4f (%d of %d queries)\n", share(float64(misses), float64(len(queries))), misses, len(queries))
	for k, lat := range byKind {
		if len(lat) > 0 {
			fmt.Printf("class kind=%-7s share %.4f  p50 %.4f ms  n=%d\n", kindPaths[k][1:], share(float64(len(lat)), float64(len(ph.outs))), median(scaled(lat, 1e6)), len(lat))
		}
	}
	for op, lat := range byOp {
		if len(lat) > 0 {
			fmt.Printf("class op=%-5s share %.4f  p50 %.4f ms  n=%d\n", opNames[op], share(float64(len(lat)), float64(len(queries))), median(scaled(lat, 1e6)), len(lat))
		}
	}
	if beyond := samplesBeyond(len(queries), 0.99); beyond < minBeyond {
		fmt.Printf("# warning: query_p99_ms has %d samples beyond it, fewer than %d\n", beyond, minBeyond)
	}
	// Tails and write latencies are printed, not gated. BENCHMARK.json
	// gates one metric set on every workload; only live_ingest writes, and
	// p99 does not repeat within a tenth across runs on a shared 2-vCPU
	// machine at this run length.
	printMetrics("tail", []metric{{name: "query_p99_ms", value: quantile(scaled(queries, 1e6), 0.99), unit: "ms", n: len(queries)}})
	if lat := byKind[kindAppend]; len(lat) > 0 {
		printMetrics("writes", []metric{
			{name: "append_p50_ms", value: median(scaled(lat, 1e6)), unit: "ms", n: len(lat)},
			{name: "append_p99_ms", value: quantile(scaled(lat, 1e6), 0.99), unit: "ms", n: len(lat)},
		})
	}
	if lat := byKind[kindMerge]; len(lat) > 0 {
		printMetrics("writes", []metric{{name: "merge_p50_ms", value: median(scaled(lat, 1e6)), unit: "ms", n: len(lat)}})
	}
	return []metric{
		{name: "qps", value: float64(len(ph.outs)) / ph.elapsed.Seconds(), unit: "1/s", n: len(ph.outs)},
		{name: "query_p50_ms", value: median(scaled(queries, 1e6)), unit: "ms", n: len(queries)},
	}
}
