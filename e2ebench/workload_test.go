package main

import (
	"bytes"
	"fmt"
	"testing"
)

// render concatenates every request body of a list, plus the warm-up
// queries, one per line.
func render(l *reqList) []byte {
	var b []byte
	for i := range l.ops {
		b = append(l.body(i, b), '\n')
	}
	for _, qi := range l.warm {
		b = append(l.queries[qi].appendJSON(b, l.spec.table), '\n')
	}
	return b
}

func TestSameSeedSameRequestList(t *testing.T) {
	for _, s := range specs {
		s.rows = tinyRows
		a, b := render(generate(s, 7, 500)), render(generate(s, 7, 500))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 rendered two different request lists", s.name)
		}
		if c := render(generate(s, 8, 500)); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 rendered the same request list", s.name)
		}
	}
}

// TestQueriesAreDistinct pins what keeps adhoc_scan and live_ingest off
// the result cache, which keys on the query and the visible row count:
// no query repeats at one row count.
func TestQueriesAreDistinct(t *testing.T) {
	for _, name := range []string{"adhoc_scan", "live_ingest"} {
		l := generate(tinySpec(name), 9, 2000)
		seen := map[string]int{}
		for i, o := range l.ops {
			if o.kind != kindQuery {
				continue
			}
			body := fmt.Sprintf("%d %s", o.rows, l.body(i, nil))
			if j, dup := seen[body]; dup {
				t.Fatalf("%s: requests %d and %d are both %s", name, j, i, body)
			}
			seen[body] = i
		}
	}
}

func TestDashboardShape(t *testing.T) {
	l := generate(tinySpec("dashboard_cached"), 10, 5000)
	if len(l.queries) != dashboardQueries {
		t.Fatalf("%d dashboard queries, want %d", len(l.queries), dashboardQueries)
	}
	if len(l.warm) != dashboardCacheEntries || l.warm[len(l.warm)-1] != 0 {
		t.Fatalf("warm-up issues %d queries ending with %d, want %d ending with the most popular",
			len(l.warm), l.warm[len(l.warm)-1], dashboardCacheEntries)
	}
	hot := 0
	for _, o := range l.ops {
		if o.query < dashboardCacheEntries {
			hot++
		}
	}
	// The Zipf head that fits the cache draws most requests, but not all:
	// the rest are the misses the workload keeps visible.
	if share := float64(hot) / float64(len(l.ops)); share < 0.6 || share > 0.95 {
		t.Errorf("%.3f of draws fall in the cacheable head, want between 0.6 and 0.95", share)
	}
}

func TestLiveInterleaving(t *testing.T) {
	l := generate(tinySpec("live_ingest"), 11, probeOps)
	if len(l.ops) != probeOps {
		t.Fatalf("%d ops, want %d", len(l.ops), probeOps)
	}
	appends, rows := 0, int32(tinyRows)
	for i, o := range l.ops {
		want := uint8(kindQuery)
		switch {
		case i == len(l.ops)-1:
			want = kindMerge
		case i%(liveQueriesPerAdd+1) == liveQueriesPerAdd:
			want = kindAppend
		}
		if o.kind != want {
			t.Fatalf("op %d is %s, want %s", i, kindPaths[o.kind], kindPaths[want])
		}
		if o.kind != kindMerge && o.rows != rows {
			t.Fatalf("op %d sees %d rows, want %d", i, o.rows, rows)
		}
		if o.kind == kindAppend {
			appends++
			rows += appendBatch
		}
	}
	if appends != liveMergeEvery || l.data.len() != tinyRows+liveMergeEvery*appendBatch {
		t.Fatalf("%d appends over %d rows, want %d over %d", appends, l.data.len(), liveMergeEvery, tinyRows+liveMergeEvery*appendBatch)
	}
}

// TestAdhocMixIsEven pins what keeps adhoc_scan's load and cached heap
// steady wherever a run stops: every window of 1024 consecutive
// queries (the result cache's size) holds each op in the same share,
// give or take a few queries, and every 600 queries pair each op slot
// with each leaf count equally often.
func TestAdhocMixIsEven(t *testing.T) {
	l := generate(tinySpec("adhoc_scan"), 13, 3000)
	want := map[uint8]int{}
	for _, op := range adhocOps {
		want[op] += dashboardCacheEntries
	}
	for start := 0; start+dashboardCacheEntries <= len(l.ops); start += 37 {
		got := map[uint8]int{}
		for _, o := range l.ops[start : start+dashboardCacheEntries] {
			got[l.queries[o.query].op]++
		}
		for op, w := range want {
			if d := got[op]*len(adhocOps) - w; d < -4*len(adhocOps) || d > 4*len(adhocOps) {
				t.Fatalf("window at %d: %d %s queries, want %d±4", start, got[op], opNames[op], w/len(adhocOps))
			}
		}
	}
	perLeaves := map[[2]int]int{}
	for _, q := range l.queries[:600] {
		perLeaves[[2]int{int(q.op), int(q.nLeaves)}]++
	}
	for op, w := range want {
		for n := 1; n <= 3; n++ {
			if got, w := perLeaves[[2]int{int(op), n}], w/dashboardCacheEntries*10; got != w {
				t.Errorf("first 600 queries: %d %s queries with %d leaves, want %d", got, opNames[op], n, w)
			}
		}
	}
}
