package store

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/raceflag"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/synth"
)

// knnModel fits a default-config kNN on a rows×cols dataset, so its MLMF
// artifact is dominated by the rows·cols·8-byte training matrix.
func knnModel(tb testing.TB, rows, cols int) platforms.FittedModel {
	tb.Helper()
	ds := synth.GenerateClean(synth.Spec{Name: "store-knn", Gen: synth.GenClusters, N: rows, D: cols, Noise: 0.3},
		synth.Profile{Name: "store-knn", MaxN: rows, MaxD: cols}, 9)
	if ds.N() != rows || ds.D() != cols {
		tb.Fatalf("dataset is %dx%d, want %dx%d", ds.N(), ds.D(), rows, cols)
	}
	cfg := pipeline.Config{Feat: pipeline.Feat{Kind: "none"}, Classifier: "knn", Params: map[string]any{"n_neighbors": 5}}
	fp, err := pipeline.Fit(context.Background(), cfg, ds, rng.New(3), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return fp
}

// TestDecodeModelDoesNotAliasInput is the safety oracle for reading
// artifacts into pooled buffers: once DecodeModel returns, the model must
// not depend on the input bytes. Every golden artifact is decoded, its
// input overwritten, and the model must still predict the original's
// labels and re-encode to the original bytes.
func TestDecodeModelDoesNotAliasInput(t *testing.T) {
	_, points := trainTestData(t)
	for _, g := range goldenArtifacts(t) {
		buf := append([]byte(nil), g.art...)
		key, m, err := DecodeModel(buf)
		if err != nil {
			t.Fatalf("%s: DecodeModel: %v", g.key, err)
		}
		for i := range buf {
			buf[i] = 0xA5
		}
		if key != g.key {
			t.Fatalf("%s: decoded key reads %q after the input was overwritten", g.key, key)
		}
		assertSameLabels(t, g.key, m.Predict(points), g.m.Predict(points))
		again, err := EncodeModel(g.key, m)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", g.key, err)
		}
		if !bytes.Equal(again, g.art) {
			t.Fatalf("%s: re-encoded artifact differs after the input was overwritten", g.key)
		}
	}
}

// TestGetModelAllocatesOneMatrix: a disk-tier load of a kNN artifact costs
// one owned copy of its training matrix — the file is read into a pooled
// buffer and the rows decode straight into the matrix the kernels scan —
// plus the labels and row headers, not further copies of the matrix.
func TestGetModelAllocatesOneMatrix(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	// One P: a pooled buffer sits in the P-private slot, which a goroutine
	// that migrates cannot reach.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rows, cols = 1200, 16
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutModel("knn", knnModel(t, rows, cols)); err != nil {
		t.Fatal(err)
	}
	get := func() {
		if _, ok, err := s.GetModel("knn"); !ok || err != nil {
			t.Fatalf("GetModel: ok=%v err=%v", ok, err)
		}
	}
	get() // warm the buffer pool
	const calls = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	matrix := uint64(rows * cols * 8)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; 2*perCall > 3*matrix {
		t.Errorf("GetModel allocates %d bytes per call, want <= 1.5 x the %d-byte matrix", perCall, matrix)
	}
}

// TestConcurrentPutModelSameKey: several stores over one directory (two
// replicas sharing a store, or a demotion racing a write-through) write
// the same keys at once while readers load them. Every write must succeed,
// every read must see either no artifact or a whole one, and no temp file
// may be left behind.
func TestConcurrentPutModelSameKey(t *testing.T) {
	const writers, keys, readsPerKey = 4, 100, 48
	dir := t.TempDir()
	m := knnModel(t, 300, 8)
	stores := make([]*Store, writers)
	for i := range stores {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	var putErrs, badReads atomic.Int64
	var firstErr atomic.Value
	note := func(n *atomic.Int64, err error) {
		n.Add(1)
		firstErr.CompareAndSwap(nil, err.Error())
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("shared/key/%d", k)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for _, s := range stores {
			wg.Add(2)
			go func(s *Store) {
				defer wg.Done()
				<-start
				if err := s.PutModel(key, m); err != nil {
					note(&putErrs, err)
				}
			}(s)
			go func(s *Store) {
				defer wg.Done()
				<-start
				for r := 0; r < readsPerKey/writers; r++ {
					if _, _, err := s.GetModel(key); err != nil {
						note(&badReads, err)
					}
				}
			}(s)
		}
		close(start)
		wg.Wait()
	}
	if putErrs.Load() != 0 || badReads.Load() != 0 {
		t.Fatalf("%d PutModel errors and %d failed GetModels (first: %v)", putErrs.Load(), badReads.Load(), firstErr.Load())
	}
	for k := 0; k < keys; k++ {
		if _, ok, err := stores[0].GetModel(fmt.Sprintf("shared/key/%d", k)); !ok || err != nil {
			t.Fatalf("key %d after the writers finished: ok=%v err=%v", k, ok, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), modelExt) {
			t.Fatalf("stray file %s left in the store", filepath.Join(dir, e.Name()))
		}
	}
	if len(entries) != keys {
		t.Fatalf("%d files in the store, want %d", len(entries), keys)
	}
}
