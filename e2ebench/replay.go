package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"byteslice"
	"byteslice/internal/obs"
	"byteslice/internal/serve"
)

// replayStats collects the counts the replay reads at layer boundaries.
type replayStats struct {
	requests int
	// Kernel counters of the replayed facade queries (Result.Stats()).
	kernelBytes, kernelRows, kernelWallNs int64
	zoneSkipped, segmentVisits            int64
	// Paired per-miss sums: Server.Do and the facade calls it implies.
	doMissNs, facadeNs int64
	// Ingest: WAL bytes and rows appended, unmerged rows per live query.
	walBytes, walRows int64
	deltaRows         []int64
}

func (s *replayStats) addKernel(res *byteslice.Result, rows int) {
	st := res.Stats()
	if st == nil {
		return
	}
	s.kernelBytes += st.BytesTouched()
	s.kernelRows += int64(rows)
	s.zoneSkipped += st.ZoneSkipped()
	for _, stage := range st.Stages {
		s.kernelWallNs += stage.WallNs
		s.segmentVisits += stage.Segments + stage.ZoneSkipped + stage.MaskSkipped
	}
}

// replayer drives requests through the serving layer's public functions
// in process, one at a time, recording a span around each call.
type replayer struct {
	l     *reqList
	tr    *tracer
	srv   *serve.Server
	stats *replayStats
	buf   []byte
}

// serveRequest replays request i through DecodeRequest → Do →
// json.Marshal, then Do once more as a cache-hit probe. It returns the
// root span id and whether the first Do missed, with its duration.
func (r *replayer) serveRequest(i int) (root int32, miss bool, doNs int64, err error) {
	root = r.tr.newID()
	start := r.tr.now()
	r.buf = r.l.body(i, r.buf[:0])
	var req *serve.Request
	r.tr.timed(spDecode, int32(i), root, func() { req, err = serve.DecodeRequest(r.buf) })
	if err != nil {
		return root, false, 0, err
	}
	doStart := r.tr.now()
	resp, err := r.srv.Do(context.Background(), req)
	doEnd := r.tr.now()
	if err != nil {
		return root, false, 0, fmt.Errorf("replaying request %d: %w", i, err)
	}
	miss = resp.Cache == "miss"
	name := uint8(spDoHit)
	if miss {
		name = spDoMiss
	}
	r.tr.record(name, int32(i), root, doStart, doEnd)
	r.tr.timed(spEncode, int32(i), root, func() { _, err = json.Marshal(resp) })
	if err != nil {
		return root, miss, 0, err
	}
	hitStart := r.tr.now()
	if resp, err = r.srv.Do(context.Background(), req); err != nil {
		return root, miss, 0, err
	}
	if resp.Cache == "hit" {
		r.tr.record(spDoHit, int32(i), root, hitStart, r.tr.now())
	}
	r.tr.add(span{id: root, parent: -1, req: int32(i), name: spReplay, start: start, end: r.tr.now()})
	r.stats.requests++
	return root, miss, doEnd - doStart, nil
}

// replaySnapshot replays the first n requests of a snapshot workload on
// a fresh server over a freshly loaded copy of the snapshot (the
// persist.load span), and for every cache miss the facade calls the
// server made: Table.Query at the worker count a lone request is
// granted, the aggregate, then OrderBy/Project*/Rows. It stops early
// when budget runs out.
func replaySnapshot(l *reqList, path string, tr *tracer, n int, budget time.Duration) (*replayStats, error) {
	var tbl *byteslice.Table
	var err error
	tr.timed(spPersistLoad, -1, -1, func() { tbl, err = byteslice.LoadFile(path) })
	if err != nil {
		return nil, err
	}
	srv := newServer()
	defer srv.Close()
	if err := srv.Catalog().MountTable(l.spec.table, tbl); err != nil {
		return nil, err
	}
	if err := warm(l, srv); err != nil {
		return nil, err
	}
	r := &replayer{l: l, tr: tr, srv: srv, stats: &replayStats{}}
	deadline := time.Now().Add(budget)
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		root, miss, doNs, err := r.serveRequest(i)
		if err != nil {
			return nil, err
		}
		if !miss {
			continue
		}
		q := &l.queries[l.ops[i].query]
		fid := tr.newID()
		fStart := tr.now()
		if err := replayFacade(tbl, q, int32(i), fid, tr, r.stats); err != nil {
			return nil, fmt.Errorf("replaying request %d in the facade: %w", i, err)
		}
		tr.add(span{id: fid, parent: root, req: int32(i), name: spFacade, start: fStart, end: tr.now()})
		r.stats.doMissNs += doNs
		r.stats.facadeNs += tr.now() - fStart
	}
	return r.stats, nil
}

// loneOpts are the query options the server passes to every facade call
// of a request that runs alone: the whole worker pool.
var loneOpts = []byteslice.QueryOption{byteslice.WithParallelism(runtime.NumCPU())}

// replayFacade makes the facade calls the server makes for q, with the
// options it makes them with.
func replayFacade(tbl *byteslice.Table, q *query, req, parent int32, tr *tracer, st *replayStats) error {
	var res *byteslice.Result
	var err error
	tr.timed(spFacadeQuery, req, parent, func() {
		res, err = tbl.Query(q.expr(), loneOpts...)
	})
	if err != nil {
		return err
	}
	st.addKernel(res, tbl.Len())
	col := colNames[q.aggCol]
	tr.timed(spFacadeAggregate, req, parent, func() {
		_ = res.Count()
		switch {
		case q.op == opSum || q.op == opAvg:
			if q.aggCol == colPrice {
				_, _, err = tbl.SumDecimal(col, res, loneOpts...)
			} else {
				_, _, err = tbl.SumInt(col, res, loneOpts...)
			}
		case q.op == opMin && q.aggCol == colPrice:
			_, _, err = tbl.MinDecimal(col, res, loneOpts...)
		case q.op == opMax && q.aggCol == colPrice:
			_, _, err = tbl.MaxDecimal(col, res, loneOpts...)
		case q.op == opMin && q.aggCol == colCat:
			_, _, err = tbl.MinString(col, res, loneOpts...)
		case q.op == opMax && q.aggCol == colCat:
			_, _, err = tbl.MaxString(col, res, loneOpts...)
		case q.op == opMin:
			_, _, err = tbl.MinInt(col, res, loneOpts...)
		case q.op == opMax:
			_, _, err = tbl.MaxInt(col, res, loneOpts...)
		}
	})
	if err != nil || q.op != opRows {
		return err
	}
	return replayRows(tbl, q, res, req, parent, tr)
}

// replayRows makes the calls that materialize a rows query: OrderBy
// when it sorts (the facade.orderby span), otherwise Result.Rows and
// Project* of the requested columns (the facade.project span).
func replayRows(tbl *byteslice.Table, q *query, res *byteslice.Result, req, parent int32, tr *tracer) error {
	var err error
	if q.orderBy >= 0 {
		tr.timed(spFacadeOrderBy, req, parent, func() { _, err = tbl.OrderBy(colNames[q.orderBy], res, loneOpts...) })
		return err
	}
	tr.timed(spFacadeProject, req, parent, func() {
		_ = res.Rows()
		for c := uint8(0); c < numCols && err == nil; c++ {
			if q.cols&(1<<c) == 0 {
				continue
			}
			switch c {
			case colPrice:
				_, _, err = tbl.ProjectDecimal(colNames[c], res, loneOpts...)
			case colCat:
				_, _, err = tbl.ProjectString(colNames[c], res, loneOpts...)
			default:
				_, _, err = tbl.ProjectInt(colNames[c], res, loneOpts...)
			}
		}
	})
	return err
}

// replayLive replays the first n ops of a live request list on a
// benchmark-owned IngestTable created in dir from the list's base rows:
// each /append batch goes through IngestTable.Append, each /merge through
// MergeNow, and each query through Pinned.Query with the view's unmerged
// row count recorded.
//
// With withServer (the live_ingest workload itself) the base also goes
// through SaveFile and LoadFile (the persist spans), and a second copy of
// the table is mounted on a fresh server where every op is replayed too —
// queries through DecodeRequest → Do → json.Marshal, appends and merges
// through its handler — so the serve spans see the same delta as the
// HTTP run; kernel counters and the facade spans come from the owned
// table. Without it (the ingest probe of the snapshot workloads) only the
// ingest spans are recorded. It stops early when budget runs out.
func replayLive(l *reqList, dir string, tr *tracer, n int, budget time.Duration, withServer bool) (*replayStats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base, err := l.data.inputs(0, l.spec.rows).table()
	if err != nil {
		return nil, err
	}
	if withServer {
		basePath := filepath.Join(dir, "replay-base.bslc")
		tr.timed(spPersistSave, -1, -1, func() { err = base.SaveFile(basePath) })
		if err != nil {
			return nil, err
		}
		tr.timed(spPersistLoad, -1, -1, func() { base, err = byteslice.LoadFile(basePath) })
		if err != nil {
			return nil, err
		}
	}
	it, err := byteslice.CreateIngest(filepath.Join(dir, "replay-owned"), base, liveOpts...)
	if err != nil {
		return nil, err
	}
	defer it.Close()

	r := &replayer{l: l, tr: tr, stats: &replayStats{}}
	var handler http.Handler
	if withServer {
		served := filepath.Join(dir, "replay-served")
		sit, err := byteslice.CreateIngest(served, base, liveOpts...)
		if err != nil {
			return nil, err
		}
		if err := sit.Close(); err != nil {
			return nil, err
		}
		r.srv = newServer()
		defer r.srv.Close()
		if err := r.srv.Catalog().MountIngest(l.spec.table, served, liveOpts...); err != nil {
			return nil, err
		}
		handler = r.srv.Handler()
	}

	deadline := time.Now().Add(budget)
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		o := l.ops[i]
		if o.kind != kindQuery && handler != nil {
			if err := serveOp(handler, l, i); err != nil {
				return nil, err
			}
		}
		switch o.kind {
		case kindAppend:
			// Both tables append through the process-wide counters, so
			// the owned table's share is what its own Appends add.
			b0, r0 := obs.Default.Ingest.AppendedBytes.Load(), obs.Default.Ingest.AppendedRows.Load()
			tr.timed(spIngestAppend, int32(i), -1, func() {
				for row := int(o.rows); row < int(o.rows)+appendBatch && err == nil; row++ {
					err = it.Append(l.data.appendRow(row))
				}
			})
			if err != nil {
				return nil, fmt.Errorf("replaying append %d: %w", i, err)
			}
			r.stats.walBytes += obs.Default.Ingest.AppendedBytes.Load() - b0
			r.stats.walRows += obs.Default.Ingest.AppendedRows.Load() - r0
		case kindMerge:
			tr.timed(spIngestMerge, int32(i), -1, func() { err = it.MergeNow() })
			if err != nil {
				return nil, fmt.Errorf("replaying merge %d: %w", i, err)
			}
		case kindQuery:
			if err := r.liveQuery(it, i, withServer); err != nil {
				return nil, err
			}
		}
	}
	return r.stats, nil
}

// liveQuery replays one live query: through the server when withServer,
// then on the owned table's pinned view.
func (r *replayer) liveQuery(it *byteslice.IngestTable, i int, withServer bool) error {
	root, fid := int32(-1), int32(-1)
	var miss bool
	var doNs int64
	var err error
	if withServer {
		if root, miss, doNs, err = r.serveRequest(i); err != nil {
			return err
		}
		fid = r.tr.newID()
	}
	q := &r.l.queries[r.l.ops[i].query]
	pin := it.Pin()
	r.stats.deltaRows = append(r.stats.deltaRows, int64(pin.DeltaLen()))
	fStart := r.tr.now()
	var res *byteslice.Result
	r.tr.timed(spIngestQuery, int32(i), fid, func() {
		res, err = pin.Query(q.expr(), loneOpts...)
	})
	if err != nil {
		return fmt.Errorf("replaying live query %d: %w", i, err)
	}
	if !withServer {
		return nil
	}
	r.stats.addKernel(res, pin.Len())
	r.tr.timed(spFacadeAggregate, int32(i), fid, func() { _ = res.Count() })
	if q.op == opRows {
		r.tr.timed(spFacadeProject, int32(i), fid, func() { _ = res.Rows() })
	}
	r.tr.add(span{id: fid, parent: root, req: int32(i), name: spFacade, start: fStart, end: r.tr.now()})
	if miss {
		r.stats.doMissNs += doNs
		r.stats.facadeNs += r.tr.now() - fStart
	}
	return nil
}

// serveOp sends a live write (append or merge) through the handler
// in process.
func serveOp(h http.Handler, l *reqList, i int) error {
	body := l.body(i, nil)
	req := httptest.NewRequest(http.MethodPost, kindPaths[l.ops[i].kind], strings.NewReader(string(body)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("replaying %s %d: status %d: %s", kindPaths[l.ops[i].kind], i, rec.Code, rec.Body.String())
	}
	return nil
}
