package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"byteslice"
	"byteslice/internal/obs"
	"byteslice/internal/serve"
)

// liveOpts are the ingest options of every live table the benchmark
// creates. Merges happen only where the request list says (/merge at
// fixed op indexes), never on a timer. Per-append fsync is off: the
// benchmark keeps its files inside its own directory, which may sit on
// a disk, and a per-row fsync would time that device instead of the
// program; the WAL is still fsynced at every seal and merge.
var liveOpts = []byteslice.IngestOption{byteslice.WithAutoMerge(false), byteslice.WithSyncedAppends(false)}

// flushPolicy states liveOpts for the provenance header.
const flushPolicy = "WAL fsync at seal and merge, not per append (WithSyncedAppends(false)); merges only at /merge (WithAutoMerge(false))"

// mounted is one set-up of a workload: a server with the table mounted
// and the on-disk artifact it serves from.
type mounted struct {
	srv  *serve.Server
	path string // snapshot file or ingest directory
}

// newServer returns a server with default admission and workers, a
// result cache of dashboardCacheEntries, counting into a private
// registry.
func newServer() *serve.Server {
	return serve.New(serve.Config{CacheEntries: dashboardCacheEntries, Registry: &obs.Registry{}})
}

// setup builds the table from in, persists it and mounts it — snapshot
// workloads via SaveFile and MountSnapshot, live_ingest via CreateIngest
// and MountIngest — then warms the result cache for dashboard_cached.
// It returns the set-up's timed part: building, mounting and warming.
// Persisting is left out because SaveFile and CreateIngest fsync to the
// device under the checkout, and setup_s would time that device rather
// than the program. With tr set, SaveFile gets a persist.save span.
func setup(l *reqList, in *inputs, dir string, tr *tracer) (*mounted, time.Duration, error) {
	start := time.Now()
	tbl, err := in.table()
	if err != nil {
		return nil, 0, fmt.Errorf("building table: %w", err)
	}
	built := time.Since(start)
	m := &mounted{srv: newServer()}
	if l.spec.name == "live_ingest" {
		m.path = filepath.Join(dir, "live")
		var it *byteslice.IngestTable
		if it, err = byteslice.CreateIngest(m.path, tbl, liveOpts...); err == nil {
			err = it.Close()
		}
	} else {
		m.path = filepath.Join(dir, l.spec.table+".bslc")
		saveStart := time.Now()
		err = tbl.SaveFile(m.path)
		if tr != nil {
			tr.record(spPersistSave, -1, -1, int64(saveStart.Sub(tr.base)), tr.now())
		}
	}
	if err != nil {
		return nil, 0, err
	}
	start = time.Now()
	if l.spec.name == "live_ingest" {
		err = m.srv.Catalog().MountIngest(l.spec.table, m.path, liveOpts...)
	} else if err = m.srv.Catalog().MountSnapshot(l.spec.table, m.path); err == nil {
		err = warm(l, m.srv)
	}
	return m, built + time.Since(start), err
}

// warm issues the warm-up queries in process.
func warm(l *reqList, srv *serve.Server) error {
	var buf []byte
	for _, qi := range l.warm {
		buf = l.queries[qi].appendJSON(buf[:0], l.spec.table)
		req, err := serve.DecodeRequest(buf)
		if err != nil {
			return err
		}
		if _, err := srv.Do(context.Background(), req); err != nil {
			return fmt.Errorf("warm-up query %d: %w", qi, err)
		}
	}
	return nil
}

func (m *mounted) close() error {
	err := m.srv.Close()
	if rmErr := os.RemoveAll(m.path); err == nil {
		err = rmErr
	}
	return err
}

// diskBytes is the size of the mounted artifact: the snapshot file, or
// every file of the ingest directory.
func (m *mounted) diskBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(m.path, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// timedSetups runs setup reps times and returns the timed part of each;
// every set-up but the last is torn down. Generating the inputs is not
// timed; they are released before returning, and a GC runs so the timed
// phase starts from the steady heap.
func timedSetups(l *reqList, dir string, reps int, tr *tracer) (*mounted, []float64, error) {
	in := l.data.inputs(0, l.spec.rows)
	var times []float64
	var m *mounted
	for i := 0; i < reps; i++ {
		if m != nil {
			if err := m.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		var took time.Duration
		var err error
		if m, took, err = setup(l, in, dir, tr); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, took.Seconds())
	}
	runtime.GC()
	return m, times, nil
}
