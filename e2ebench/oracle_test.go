package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"byteslice"
	"byteslice/internal/serve"
)

const tinyRows = 3000

func tinySpec(name string) spec {
	s, err := specFor(name)
	if err != nil {
		panic(err)
	}
	s.rows = tinyRows
	return s
}

// doJSON runs one query body through the server in process and returns
// the encoded response.
func doJSON(t *testing.T, srv *serve.Server, body []byte) []byte {
	t.Helper()
	req, err := serve.DecodeRequest(body)
	if err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	resp, err := srv.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("query %s: %v", body, err)
	}
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mountTiny(t *testing.T, l *reqList) *serve.Server {
	t.Helper()
	tbl, err := l.data.inputs(0, l.spec.rows).table()
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer()
	t.Cleanup(func() { srv.Close() })
	if err := srv.Catalog().MountTable(l.spec.table, tbl); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestOracleAgreesWithServer checks the oracle against the server, and
// so the facade under it, for every query of small ad-hoc and dashboard
// lists, and that those lists cover every op of the mix.
func TestOracleAgreesWithServer(t *testing.T) {
	for _, name := range []string{"adhoc_scan", "dashboard_cached"} {
		l := generate(tinySpec(name), 3, 400)
		srv := mountTiny(t, l)
		s := &scratch{}
		covered := map[string]bool{}
		for i := range l.queries {
			q := &l.queries[i]
			body := q.appendJSON(nil, l.spec.table)
			a := evaluate(l.data, q, l.spec.rows, s)
			if _, err := a.checkBody(q, doJSON(t, srv, body)); err != nil {
				t.Fatalf("%s query %s: %v", name, body, err)
			}
			covered[opClass(q)] = true
			if q.nLeaves > 1 && q.any {
				covered["any"] = true
			} else if q.nLeaves > 1 {
				covered["all"] = true
			}
		}
		if name == "adhoc_scan" {
			for _, want := range []string{"count", "sum a", "sum b", "sum price", "avg a", "avg price",
				"min day", "min a", "min b", "min price", "min cat", "max day", "max price", "max cat",
				"rows order_by day", "rows order_by a", "rows order_by b", "rows order_by price", "rows cols",
				"any", "all"} {
				if !covered[want] {
					t.Errorf("ad-hoc list covers %v, missing %q", covered, want)
				}
			}
		}
	}
}

// opClass names a query's place in the op mix for the coverage check.
func opClass(q *query) string {
	switch {
	case q.op == opCount:
		return "count"
	case q.op == opRows && q.orderBy >= 0:
		return "rows order_by " + colNames[q.orderBy]
	case q.op == opRows:
		return "rows cols"
	}
	return opNames[q.op] + " " + colNames[q.aggCol]
}

// TestOracleAgreesWithLiveMount plays a small live interleaving — queries,
// appends and a merge — through the HTTP handler of a live mount and
// checks every query against the oracle over the rows visible to it.
func TestOracleAgreesWithLiveMount(t *testing.T) {
	l := generate(tinySpec("live_ingest"), 4, probeOps+20)
	base, err := l.data.inputs(0, l.spec.rows).table()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "live")
	it, err := byteslice.CreateIngest(dir, base, liveOpts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	srv := newServer()
	defer srv.Close()
	if err := srv.Catalog().MountIngest(l.spec.table, dir, liveOpts...); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	s := &scratch{}
	merges := 0
	for i, o := range l.ops {
		body := l.body(i, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, kindPaths[o.kind], strings.NewReader(string(body))))
		if rec.Code != http.StatusOK {
			t.Fatalf("op %d %s: status %d: %s", i, kindPaths[o.kind], rec.Code, rec.Body)
		}
		switch o.kind {
		case kindMerge:
			merges++
		case kindQuery:
			q := &l.queries[o.query]
			a := evaluate(l.data, q, int(o.rows), s)
			if _, err := a.checkBody(q, rec.Body.Bytes()); err != nil {
				t.Fatalf("op %d query %s over %d rows: %v", i, body, o.rows, err)
			}
		}
	}
	if merges == 0 {
		t.Fatal("the interleaving never merged")
	}
}

// TestOracleRejectsWrongAnswers checks that the comparison notices a
// changed count, value, row id or projected value.
func TestOracleRejectsWrongAnswers(t *testing.T) {
	l := generate(tinySpec("adhoc_scan"), 5, 1)
	srv := mountTiny(t, l)
	s := &scratch{}
	q := &query{op: opRows, nLeaves: 1, orderBy: colA, cols: 1<<colA | 1<<colPrice, limit: 5,
		leaves: [3]leaf{{col: colDay, cmp: cmpLt, lo: 2000}}}
	a := evaluate(l.data, q, l.spec.rows, s)
	good := doJSON(t, srv, q.appendJSON(nil, l.spec.table))
	if _, err := a.checkBody(q, good); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	var r wireResp
	mutations := map[string]func(){
		"count":     func() { r.Count++ },
		"row id":    func() { r.RowIDs[0]++ },
		"value":     func() { r.Data["a"].Ints[0]++ },
		"null":      func() { r.Data["price"].Rows = r.Data["price"].Rows[1:] },
		"aggregate": func() { v := int64(1); r.IntValue = &v },
	}
	for name, mutate := range mutations {
		r = wireResp{}
		if err := json.Unmarshal(good, &r); err != nil {
			t.Fatal(err)
		}
		mutate()
		if err := a.check(q, &r); err == nil {
			t.Errorf("a wrong %s passed the check", name)
		}
	}
}
