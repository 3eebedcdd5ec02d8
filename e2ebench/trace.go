package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. A span is recorded by the benchmark around its own call
// into one layer's public function; the program itself records nothing.
const (
	spClient          = iota // client round trip over loopback HTTP
	spHandler                // Server.Handler().ServeHTTP, server side
	spReplay                 // one replayed request (root of the in-process replay)
	spDecode                 // serve.DecodeRequest
	spDoHit                  // Server.Do answered from the result cache
	spDoMiss                 // Server.Do that executed the query
	spEncode                 // json.Marshal of the Response
	spFacade                 // the facade calls a cache miss implies (parent of the next four)
	spFacadeQuery            // Table.Query / Pinned.Query
	spFacadeAggregate        // Result.Count plus SumInt/SumDecimal/Min*/Max*
	spFacadeOrderBy          // OrderBy (ordered rows)
	spFacadeProject          // Result.Rows plus Project* (unordered rows)
	spIngestAppend           // IngestTable.Append of one 64-row batch
	spIngestMerge            // IngestTable.MergeNow
	spIngestQuery            // Pinned.Query on a live view
	spPersistSave            // Table.SaveFile
	spPersistLoad            // LoadFile
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"http.client", "serve.handler", "replay.request", "serve.decode", "serve.do_hit",
	"serve.do_miss", "serve.encode", "facade", "facade.query", "facade.aggregate",
	"facade.orderby", "facade.project", "ingest.append", "ingest.merge", "ingest.live_query", "persist.save", "persist.load",
}

// span is one timed interval. Spans of one request share req; parent is
// the id of the span that caused it (-1 for a root). Times are
// nanoseconds since the tracer started.
type span struct {
	id, parent, req int32
	name            uint8
	start, end      int64
}

func (s *span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory (pointer-free, so tracing adds no GC
// scanning) and writes them out once the run is over.
type tracer struct {
	base   time.Time
	nextID atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// newID reserves a span id, so a parent can hand its id to children
// recorded before it ends.
func (t *tracer) newID() int32 { return t.nextID.Add(1) - 1 }

// add records a finished span under a reserved id.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record reserves an id and records the span in one step.
func (t *tracer) record(name uint8, req, parent int32, start, end int64) {
	t.add(span{id: t.newID(), parent: parent, req: req, name: name, start: start, end: end})
}

// timed runs fn inside a span.
func (t *tracer) timed(name uint8, req, parent int32, fn func()) {
	start := t.now()
	fn()
	t.record(name, req, parent, start, t.now())
}

// selfTime is a span's duration minus the part of its interval that its
// children cover; overlapping children count once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, curA, curB := int64(0), int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return parent.dur() - covered
}

// spanIndex answers the per-layer questions over a finished trace.
type spanIndex struct {
	spans    []span
	children map[int32][]span
}

func (t *tracer) index() *spanIndex {
	t.mu.Lock()
	defer t.mu.Unlock()
	ix := &spanIndex{spans: t.spans, children: make(map[int32][]span)}
	for _, s := range t.spans {
		if s.parent >= 0 {
			ix.children[s.parent] = append(ix.children[s.parent], s)
		}
	}
	return ix
}

// durations returns the durations (ns) of every span named name.
func (ix *spanIndex) durations(name uint8) []int64 {
	var out []int64
	for i := range ix.spans {
		if ix.spans[i].name == name {
			out = append(out, ix.spans[i].dur())
		}
	}
	return out
}

// selfTimes returns the self times (ns) of every span named name.
func (ix *spanIndex) selfTimes(name uint8) []int64 {
	var out []int64
	for _, s := range ix.spans {
		if s.name == name {
			out = append(out, selfTime(s, ix.children[s.id]))
		}
	}
	return out
}

// write stores the spans as JSON lines, in start order.
func (ix *spanIndex) write(path string) error {
	spans := append([]span(nil), ix.spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, s.req, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
