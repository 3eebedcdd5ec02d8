package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one completed request of an HTTP phase. The response body
// is kept in the issuing client's arena and decoded only after timing.
type outcome struct {
	seq    int32 // index into the request list
	status int16
	client uint8
	latNs  int64
	off    int64
	n      int32
	// clientSpan is the id of the http.client span (traced phases).
	clientSpan int32
}

// phase is the record of one timed closed-loop HTTP phase.
type phase struct {
	outs    []outcome
	arenas  []bytes.Buffer // response bodies, one arena per client
	elapsed time.Duration
	end     int     // list index after the phase's last request
	errs    []error // transport failures (no response at all)
}

func (p *phase) body(o *outcome) []byte {
	return p.arenas[o.client].Bytes()[o.off : o.off+int64(o.n)]
}

// Headers the traced handler wrapper reads to link its span to the
// client's.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// tracedHandler records a serve.handler span around every ServeHTTP call.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := tr.now()
		h.ServeHTTP(w, r)
		end := tr.now()
		req, _ := strconv.Atoi(r.Header.Get(hdrReq))
		parent, err := strconv.Atoi(r.Header.Get(hdrSpan))
		if err != nil {
			parent = -1
		}
		tr.record(spHandler, int32(req), int32(parent), start, end)
	})
}

// listener serves h on a loopback port until stop returns.
type listener struct {
	addr string // host:port
	srv  *http.Server
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &listener{addr: ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

func (l *listener) stop() error {
	err := l.srv.Shutdown(context.Background())
	if serveErr := <-l.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// runPhase drives the request list, from request first on, closed loop
// from the workload's clients goroutines, each with its own http.Client
// holding one keep-alive connection to addr: a client takes the next
// request of the list, sends it, drains the response and only then takes
// another. The phase ends when dur has passed — on a list with a cycle,
// at the next cycle boundary after that — or the list is used up;
// elapsed runs until the last response arrives. With tr set, each round
// trip is a http.client span and the server is expected to record the
// serve.handler child.
func runPhase(addr string, l *reqList, first int, dur time.Duration, tr *tracer) *phase {
	clients := l.spec.clients
	p := &phase{arenas: make([]bytes.Buffer, clients)}
	outs := make([][]outcome, clients)
	errs := make([][]error, clients)
	var next, limit atomic.Int64
	next.Store(int64(first))
	limit.Store(int64(len(l.ops)))
	var stopOnce sync.Once
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			transport := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer transport.CloseIdleConnections()
			client := &http.Client{Transport: transport}
			var buf []byte
			for {
				i := int(next.Add(1) - 1)
				if time.Now().After(deadline) {
					// Later draws only get higher indexes, so the
					// first one past the deadline sets the end.
					stopOnce.Do(func() { limit.Store(int64(min(l.stopIndex(i), len(l.ops)))) })
				}
				if i >= int(limit.Load()) {
					return
				}
				buf = l.body(i, buf[:0])
				req, err := http.NewRequest(http.MethodPost, "http://"+addr+kindPaths[l.ops[i].kind], bytes.NewReader(buf))
				if err != nil {
					errs[c] = append(errs[c], fmt.Errorf("request %d: %w", i, err))
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				o := outcome{seq: int32(i), client: uint8(c), clientSpan: -1}
				if tr != nil {
					o.clientSpan = tr.newID()
					req.Header.Set(hdrReq, strconv.Itoa(i))
					req.Header.Set(hdrSpan, strconv.Itoa(int(o.clientSpan)))
				}
				arena := &p.arenas[c]
				o.off = int64(arena.Len())
				t0 := time.Now()
				status, err := roundTrip(client, req, arena)
				o.latNs = int64(time.Since(t0))
				if tr != nil {
					start := int64(t0.Sub(tr.base))
					tr.add(span{id: o.clientSpan, parent: -1, req: int32(i), name: spClient, start: start, end: start + o.latNs})
				}
				if err != nil {
					errs[c] = append(errs[c], fmt.Errorf("request %d: %w", i, err))
					continue
				}
				o.status = int16(status)
				o.n = int32(int64(arena.Len()) - o.off)
				outs[c] = append(outs[c], o)
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.end = int(limit.Load())
	for c := range outs {
		p.outs = append(p.outs, outs[c]...)
		p.errs = append(p.errs, errs[c]...)
	}
	return p
}

// roundTrip sends req and appends the whole response body to dst, so the
// connection goes back to the client's pool for the next request.
func roundTrip(client *http.Client, req *http.Request, dst *bytes.Buffer) (status int, err error) {
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = dst.ReadFrom(resp.Body)
	if closeErr := resp.Body.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return 0, fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, nil
}
