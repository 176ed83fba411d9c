package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestPprofMux pins the server's one live profiling surface: the -pprof
// listener's index answers, and a named runtime profile comes back as a
// gzipped pprof proto that go tool pprof reads directly.
func TestPprofMux(t *testing.T) {
	srv := httptest.NewServer(pprofMux())
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, want 200: %s", path, resp.StatusCode, body)
		}
		return body
	}

	if body := get("/debug/pprof/"); !bytes.Contains(body, []byte("heap")) {
		t.Errorf("GET /debug/pprof/: index does not list the heap profile:\n%s", body)
	}
	if body := get("/debug/pprof/heap"); !bytes.HasPrefix(body, []byte{0x1f, 0x8b}) {
		t.Errorf("GET /debug/pprof/heap: want gzip magic 1f 8b, got % x", body[:min(len(body), 4)])
	}
}
