// bsserve serves ByteSlice tables over JSON/HTTP: snapshot files and
// ingest directories mount into a catalog, queries run behind admission
// control with per-query deadlines and a shared worker pool, and results
// cache per (table version, normalized predicate).
//
// Usage:
//
//	bsserve -snapshot lineitem=t.bslc -ingest events=./events -addr :8080
//
// Mount flags repeat; a bare path mounts under the file's base name.
// Query with:
//
//	curl -s localhost:8080/query -d '{"table":"lineitem","where":{"col":"price","op":"lt","args":[500]}}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"byteslice/internal/serve"
)

// Connection timeouts. A client gets readHeaderTimeout to send its request
// headers, and an idle keep-alive connection closes after idleTimeout, so
// slow or silent clients cannot hold connections outside admission
// control. No write timeout: the per-query deadline already bounds the
// work behind every response.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the query handler in an http.Server with the
// connection timeouts set.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// mountFlag collects repeatable name=path mount flags.
type mountFlag []struct{ name, path string }

func (m *mountFlag) String() string { return fmt.Sprint(*m) }

func (m *mountFlag) Set(v string) error {
	name, path, found := strings.Cut(v, "=")
	if !found {
		path = v
		name = strings.TrimSuffix(filepath.Base(v), filepath.Ext(v))
	}
	if name == "" || path == "" {
		return fmt.Errorf("mount %q: want name=path", v)
	}
	*m = append(*m, struct{ name, path string }{name, path})
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bsserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var snapshots, ingests mountFlag
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	flag.Var(&snapshots, "snapshot", "mount a .bslc snapshot as name=path (repeatable; bare path uses the base name)")
	flag.Var(&ingests, "ingest", "mount a live ingest directory as name=dir (repeatable)")
	maxInflight := flag.Int("max-inflight", 64, "admitted concurrent queries; more get a typed 429")
	workers := flag.Int("workers", 0, "shared worker-pool size (0 = NumCPU)")
	cacheEntries := flag.Int("cache", 1024, "result-cache entries (negative disables)")
	timeout := flag.Duration("timeout", 2*time.Second, "default per-query deadline")
	maxTimeout := flag.Duration("max-timeout", 30*time.Second, "cap on requested per-query deadlines")
	explain := flag.Bool("explain", false, "let requests ask for plan/analyze output")
	tenants := flag.Int("tenants", 64, "distinct per-tenant stat buckets before folding into \"other\"")
	grace := flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests")
	flag.Parse()

	if len(snapshots) == 0 && len(ingests) == 0 {
		return errors.New("nothing to serve: pass at least one -snapshot or -ingest")
	}

	srv := serve.New(serve.Config{
		MaxInflight:    *maxInflight,
		Workers:        *workers,
		CacheEntries:   *cacheEntries,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxTenants:     *tenants,
		Explain:        *explain,
	})
	defer srv.Close()

	for _, m := range snapshots {
		if err := srv.Catalog().MountSnapshot(m.name, m.path); err != nil {
			return err
		}
		fmt.Printf("bsserve: mounted snapshot %q from %s\n", m.name, m.path)
	}
	for _, m := range ingests {
		if err := srv.Catalog().MountIngest(m.name, m.path); err != nil {
			return err
		}
		fmt.Printf("bsserve: mounted ingest %q from %s\n", m.name, m.path)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := newHTTPServer(srv.Handler())
	// The actual address matters when -addr asks for port 0: tests and
	// scripts parse this line to find the server.
	fmt.Printf("bsserve: serving on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("bsserve: %s, shutting down\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := srv.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	fmt.Println("bsserve: clean shutdown")
	return nil
}
