package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"byteslice"
	"byteslice/internal/experiments"
	"byteslice/internal/obs"
	"byteslice/internal/serve"
)

// serveClientCounts are the concurrency levels the serving benchmark
// sweeps: a lone client, a moderate fan-in, and an overcommitted one.
var serveClientCounts = []int{1, 8, 64}

// serveBenchQueries is the per-level request budget; the predicate
// rotates over serveBenchPredicates distinct thresholds so the workload
// mixes result-cache misses (first touch per predicate) with hits.
const (
	serveBenchQueries    = 1024
	serveBenchPredicates = 128
)

// serveBench measures the serving layer end to end — JSON/HTTP request
// handling, admission, scheduling, the result cache, and the scan under
// it — and reports sustained qps plus mean/p50/p99 request latency at
// each concurrency level. Rows land in benchdiff-understood shape: mode
// "serve_cN", rows_per_sec = qps (the gated number), workers = clients.
func serveBench(n int, seed uint64) ([]experiments.ScanBenchEntry, error) {
	const width = 16
	vals := make([]int64, n)
	rng := seed | 1
	for i := range vals {
		// xorshift keeps the data deterministic without math/rand plumbing.
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		vals[i] = int64(rng % (1 << width))
	}
	col, err := byteslice.NewIntColumn("v", vals, 0, 1<<width)
	if err != nil {
		return nil, err
	}
	tbl, err := byteslice.NewTable(col)
	if err != nil {
		return nil, err
	}

	srv := serve.New(serve.Config{Registry: &obs.Registry{}, MaxInflight: 2 * serveClientCounts[len(serveClientCounts)-1]})
	defer srv.Close() //nolint:errcheck // mem mount holds nothing
	if err := srv.Catalog().MountTable("bench", tbl); err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2 * serveClientCounts[len(serveClientCounts)-1],
		MaxIdleConnsPerHost: 2 * serveClientCounts[len(serveClientCounts)-1],
	}}

	bodies := make([][]byte, serveBenchPredicates)
	for i := range bodies {
		threshold := (i * (1 << width)) / serveBenchPredicates
		bodies[i] = []byte(fmt.Sprintf(`{"table":"bench","where":{"col":"v","op":"ge","args":[%d]}}`, threshold))
	}

	entries := make([]experiments.ScanBenchEntry, 0, len(serveClientCounts))
	for _, clients := range serveClientCounts {
		latencies := make([]time.Duration, serveBenchQueries)
		var next int64
		var mu sync.Mutex
		take := func() int {
			mu.Lock()
			defer mu.Unlock()
			if next >= serveBenchQueries {
				return -1
			}
			i := next
			next++
			return int(i)
		}

		var wg sync.WaitGroup
		var firstErr error
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := take()
					if i < 0 {
						return
					}
					t0 := time.Now()
					resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(bodies[i%serveBenchPredicates]))
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
					// Drain before closing: an undrained body cannot go back
					// to the keep-alive pool, so every request would dial.
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close() //nolint:errcheck // status only
					if resp.StatusCode != http.StatusOK {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("serve bench: status %d", resp.StatusCode)
						}
						mu.Unlock()
						return
					}
					latencies[i] = time.Since(t0)
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		if firstErr != nil {
			return nil, firstErr
		}

		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		var total time.Duration
		for _, l := range latencies {
			total += l
		}
		entries = append(entries, experiments.ScanBenchEntry{
			Width:      width,
			Path:       "native",
			Workers:    clients,
			Mode:       fmt.Sprintf("serve_c%d", clients),
			NsPerScan:  float64(total.Nanoseconds()) / serveBenchQueries,
			RowsPerSec: serveBenchQueries / elapsed.Seconds(),
			P50Ns:      float64(latencies[serveBenchQueries/2].Nanoseconds()),
			P99Ns:      float64(latencies[serveBenchQueries*99/100].Nanoseconds()),
		})
	}
	return entries, nil
}
