package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"byteslice"
	"byteslice/internal/obs"
	"byteslice/internal/serve"
)

// TestReplayMatchesServerWorkers checks that the replay runs a large
// rows+projection query the way the server does: the facade plan gets
// the worker count the server grants a lone request, and the replayed
// projection is no slower than the server's whole Do of the same query.
func TestReplayMatchesServerWorkers(t *testing.T) {
	s := tinySpec("adhoc_scan")
	s.rows = 1 << 18
	l := generate(s, 5, 0)
	tbl, err := l.data.inputs(0, s.rows).table()
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{CacheEntries: -1, Explain: true, Registry: &obs.Registry{}})
	defer srv.Close()
	if err := srv.Catalog().MountTable(s.table, tbl); err != nil {
		t.Fatal(err)
	}
	// Nearly every row matches, and every column is projected.
	q := &query{op: opRows, nLeaves: 1, leaves: [3]leaf{{col: colA, cmp: cmpGe, lo: 1}}, orderBy: -1, cols: 1<<numCols - 1, limit: 50}
	body := q.appendJSON(nil, s.table)
	req, err := serve.DecodeRequest(body)
	if err != nil {
		t.Fatal(err)
	}

	req.Explain = true
	resp, err := srv.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Query(q.expr(), append(loneOpts, byteslice.WithObservability(true))...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := workersLine(res.Explain()), workersLine(resp.Explain); got == "" || got != want {
		t.Fatalf("replay plan %q, server plan %q", got, want)
	}
	req.Explain = false

	const reps = 7
	tr := newTracer()
	var doNs []int64
	for r := 0; r < reps; r++ {
		start := time.Now()
		if _, err := srv.Do(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		doNs = append(doNs, int64(time.Since(start)))
		if err := replayFacade(tbl, q, 0, -1, tr, &replayStats{}); err != nil {
			t.Fatal(err)
		}
	}
	project := tr.index().durations(spFacadeProject)
	if len(project) != reps {
		t.Fatalf("%d facade.project spans, want %d", len(project), reps)
	}
	if p, d := median(scaled(project, 1)), median(scaled(doNs, 1)); p > d {
		t.Fatalf("replayed projection median %.0f ns is slower than the server's Do median %.0f ns", p, d)
	}
}

// workersLine is the first line of an Explain rendering that names the
// worker count.
func workersLine(explain string) string {
	for _, line := range strings.Split(explain, "\n") {
		if strings.Contains(line, "workers") {
			return strings.TrimSpace(line)
		}
	}
	return ""
}
