package main

import (
	"net/http"
	"testing"
)

func TestHTTPServerTimeouts(t *testing.T) {
	h := http.NotFoundHandler()
	hs := newHTTPServer(h)
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", hs.IdleTimeout, idleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none: the per-query deadline bounds responses", hs.WriteTimeout)
	}
	if hs.Handler == nil {
		t.Error("server has no handler")
	}
}
