package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"mlaasbench/internal/raceflag"
	"mlaasbench/internal/telemetry"
	"mlaasbench/internal/wire"
)

// labelServer answers every predict with one labels frame of n ones after
// draining the request body — the server side of a binary predict with the
// forward pass taken out, so what is left is the client and net/http.
func labelServer(n int) *httptest.Server {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = 1
	}
	resp := wire.AppendLabelsFrame(nil, labels, wire.FlagLast)
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", wire.ContentType)
		_, _ = w.Write(resp)
	}))
}

// TestBinaryPredictAllocBudget: a 256×32 binary predict — 64 KiB of
// payload — must cost the client process far less than its payload per
// request. Before the write buffer covered the body net/http staged every
// request through a fresh 32 KiB buffer, and io.ReadAll grew the response
// by doubling: together over 40 KB per op on this path. The budget is
// bytes, client and stub server in one process.
func TestBinaryPredictAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const rows, cols = 256, 32
	srv := labelServer(rows)
	defer srv.Close()
	c := New(srv.URL).WithCodec(CodecBinary)
	c.Telemetry = telemetry.NewRegistry()
	x := make([][]float64, rows)
	for i := range x {
		x[i] = make([]float64, cols)
	}
	ctx := context.Background()
	predict := func() {
		labels, err := c.Predict(ctx, "local", "m-1", x)
		if err != nil || len(labels) != rows {
			t.Fatalf("predict: %d labels, %v", len(labels), err)
		}
	}
	for i := 0; i < 8; i++ {
		predict() // connection, pools and lazily made metric series
	}
	const ops = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		predict()
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / ops
	t.Logf("%d bytes allocated per %d×%d binary predict", perOp, rows, cols)
	if perOp > 24<<10 {
		t.Errorf("%d bytes per predict, want <= %d: the request body or the response is being staged per request again", perOp, 24<<10)
	}
}

// TestResponseBufferIgnoresLyingContentLength: a response that declares a
// gigabyte and delivers three bytes must fail the read without the client
// allocating for the claim — past maxPooledResponse the buffer grows only
// with what arrives.
func TestResponseBufferIgnoresLyingContentLength(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				buf := make([]byte, 4096)
				_, _ = conn.Read(buf)
				fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\nabc", 1<<30)
			}()
		}
	}()
	c := New("http://" + ln.Addr().String())
	c.Telemetry = telemetry.NewRegistry()
	c.MaxRetries = -1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = c.Platforms(context.Background())
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "read response") {
		t.Fatalf("got %v, want a read-response error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("a 1 GiB Content-Length over a 3-byte body allocated %d bytes", got)
	}
}

// TestResponseBufferReuse: consecutive responses of different sizes through
// the pooled buffer decode to exactly their own labels (no tail of a longer
// earlier response), and a response past maxPooledResponse is still read
// whole but its buffer is not kept.
func TestResponseBufferReuse(t *testing.T) {
	sizes := []int{4096, 3, maxPooledResponse/8 + 100, 1}
	var next atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		n := int(next.Load())
		labels := make([]int, sizes[n])
		for i := range labels {
			labels[i] = n + i
		}
		_, _ = w.Write(wire.AppendLabelsFrame(nil, labels, wire.FlagLast))
	}))
	defer srv.Close()
	c := New(srv.URL).WithCodec(CodecBinary)
	c.Telemetry = telemetry.NewRegistry()
	for n, size := range sizes {
		next.Store(int32(n))
		got, err := c.Predict(context.Background(), "local", "m-1", [][]float64{{1}})
		if err != nil {
			t.Fatalf("response of %d labels: %v", size, err)
		}
		want := make([]int, size)
		for i := range want {
			want[i] = n + i
		}
		if !slices.Equal(got, want) {
			t.Fatalf("response of %d labels decoded wrong", size)
		}
	}
	for i := 0; i < 8; i++ {
		if b := respPool.Get().(*bytes.Buffer); b.Cap() > maxPooledResponse {
			t.Fatalf("pool kept a %d-byte response buffer", b.Cap())
		}
	}
}
