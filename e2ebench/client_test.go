package main

import (
	"testing"
	"time"
)

// TestTracedPhaseEndToEnd drives a short traced phase with two clients
// over loopback HTTP against a tiny table: every answer must pass the
// oracle and every client span must have its handler span as a child.
func TestTracedPhaseEndToEnd(t *testing.T) {
	l := generate(tinySpec("dashboard_cached"), 12, 20000)
	srv := mountTiny(t, l)
	if err := warm(l, srv); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	ph, _, err := timedPhase(l, &mounted{srv: srv}, 0, 300*time.Millisecond, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(ph.outs) == 0 || len(ph.errs) != 0 {
		t.Fatalf("%d responses, transport errors %v", len(ph.outs), ph.errs)
	}
	chk := newOracle(l).checkPhase(ph)
	if chk.ok != chk.attempted {
		t.Fatalf("%d of %d requests answered correctly: %v", chk.ok, chk.attempted, chk.failures)
	}
	ix := tr.index()
	clients := 0
	for _, s := range ix.spans {
		if s.name != spClient {
			continue
		}
		clients++
		kids := ix.children[s.id]
		if len(kids) != 1 || kids[0].name != spHandler || kids[0].req != s.req {
			t.Fatalf("client span %+v has children %+v, want one serve.handler of the same request", s, kids)
		}
		if self := selfTime(s, kids); self <= 0 || self >= s.dur() {
			t.Fatalf("client span %+v: transport self time %d outside (0, %d)", s, self, s.dur())
		}
	}
	if clients != len(ph.outs) {
		t.Fatalf("%d client spans for %d responses", clients, len(ph.outs))
	}
}

// TestLivePhaseEndsOnWholeCycles checks that a live_ingest phase that
// runs out of time finishes the append–merge cycle it is in, so every
// run measures whole cycles, and that every answer still passes.
func TestLivePhaseEndsOnWholeCycles(t *testing.T) {
	l := generate(tinySpec("live_ingest"), 14, 4*liveCycle)
	m, _, err := setup(l, l.data.inputs(0, l.spec.rows), t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	ph, _, err := timedPhase(l, m, 0, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ph.outs); n == 0 || n%liveCycle != 0 || l.ops[ph.outs[n-1].seq].kind != kindMerge {
		t.Fatalf("phase ended after %d requests, want a positive multiple of %d ending with a merge", n, liveCycle)
	}
	if chk := newOracle(l).checkPhase(ph); chk.ok != chk.attempted {
		t.Fatalf("%d of %d requests answered correctly: %v", chk.ok, chk.attempted, chk.failures)
	}
	if got := (&reqList{}).stopIndex(5); got != 5 {
		t.Errorf("a list without a cycle stops at %d, want 5", got)
	}
}
