package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mlaasbench/internal/dataset"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/synth"
)

// benchCorpus materialises the first n quick-profile corpus datasets once
// per benchmark binary — the workload every load benchmark iterates over.
func benchCorpus(b *testing.B, n int) []*dataset.Dataset {
	b.Helper()
	specs := synth.Corpus()
	if n > len(specs) {
		n = len(specs)
	}
	out := make([]*dataset.Dataset, 0, n)
	for _, spec := range specs[:n] {
		out = append(out, synth.GenerateClean(spec, synth.Quick, 7))
	}
	return out
}

// BenchmarkDatasetLoadMLDS is the binary side of the load A/B: open each
// MLDS file (mmap + CRC verify) and materialise the full Dataset. Compare
// against BenchmarkDatasetLoadCSV — the ratio is the format's speedup.
func BenchmarkDatasetLoadMLDS(b *testing.B) {
	corpus := benchCorpus(b, 24)
	dir := b.TempDir()
	paths := make([]string, len(corpus))
	var bytesTotal int64
	for i, d := range corpus {
		paths[i] = filepath.Join(dir, fmt.Sprintf("%d.mlds", i))
		if err := WriteDataset(paths[i], d); err != nil {
			b.Fatal(err)
		}
		st, _ := os.Stat(paths[i])
		bytesTotal += st.Size()
	}
	b.SetBytes(bytesTotal)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := 0
		for _, path := range paths {
			f, err := OpenDataset(path)
			if err != nil {
				b.Fatal(err)
			}
			d := f.Dataset()
			rows += d.N()
			f.Close()
		}
		if rows == 0 {
			b.Fatal("empty corpus")
		}
	}
}

// BenchmarkDatasetOpenMLDS opens and CRC-verifies each file and touches one
// value through the zero-copy view, without materialising rows — the cost a
// consumer pays when it only needs a column slice.
func BenchmarkDatasetOpenMLDS(b *testing.B) {
	corpus := benchCorpus(b, 24)
	dir := b.TempDir()
	paths := make([]string, len(corpus))
	for i, d := range corpus {
		paths[i] = filepath.Join(dir, fmt.Sprintf("%d.mlds", i))
		if err := WriteDataset(paths[i], d); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, path := range paths {
			f, err := OpenDataset(path)
			if err != nil {
				b.Fatal(err)
			}
			if f.Rows() > 0 && f.Cols() > 0 {
				sink += f.Col(0)[0]
			}
			f.Close()
		}
	}
	_ = sink
}

// BenchmarkDatasetLoadCSV is the text baseline: the same corpus decoded
// from CSV files, the only durable dataset format before MLDS existed.
func BenchmarkDatasetLoadCSV(b *testing.B) {
	corpus := benchCorpus(b, 24)
	dir := b.TempDir()
	paths := make([]string, len(corpus))
	var bytesTotal int64
	for i, d := range corpus {
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			b.Fatal(err)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("%d.csv", i))
		if err := os.WriteFile(paths[i], buf.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
		bytesTotal += int64(buf.Len())
	}
	b.SetBytes(bytesTotal)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := 0
		for _, path := range paths {
			blob, err := os.ReadFile(path)
			if err != nil {
				b.Fatal(err)
			}
			d, err := dataset.ReadCSV(bytes.NewReader(blob), "bench")
			if err != nil {
				b.Fatal(err)
			}
			rows += d.N()
		}
		if rows == 0 {
			b.Fatal("empty corpus")
		}
	}
}

// benchModel fits one mid-size randomforest for the artifact codec benchmarks.
func benchModel(b *testing.B) platforms.FittedModel {
	b.Helper()
	ds := synth.GenerateClean(synth.Spec{
		Name: "store-bench", Gen: synth.GenClusters, N: 240, D: 8, Noise: 0.3,
	}, synth.Quick, 11)
	p, err := platforms.New("local")
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.Config{Classifier: "randomforest", Params: map[string]any{"n_estimators": 16}}
	m, err := p.Fit(cfg, ds, 5)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkModelEncodeMLMF measures fitted-model serialisation — the cost a
// demotion or write-through pays off the serving path.
func BenchmarkModelEncodeMLMF(b *testing.B) {
	m := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeModel("bench/key", m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelDecodeMLMF measures artifact load — the cost of a disk-tier
// hit or a boot-time warm, in place of a full refit.
func BenchmarkModelDecodeMLMF(b *testing.B) {
	blob, err := EncodeModel("bench/key", benchModel(b))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeModel(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGetModel measures a disk-tier rehit end to end — open,
// read and decode a 1200×16 kNN artifact — the load a model-cache miss
// pays when the store holds the model.
func BenchmarkStoreGetModel(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if err := s.PutModel("bench/knn", knnModel(b, 1200, 16)); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(s.ModelPath("bench/knn"))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := s.GetModel("bench/knn"); !ok || err != nil {
			b.Fatalf("GetModel: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkStorePutModel measures a write-through of the same kNN model —
// encode, temp file, write and rename. The artifact is unlinked between
// iterations, outside the timer, so every put writes.
func BenchmarkStorePutModel(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	m := knnModel(b, 1200, 16)
	path := s.ModelPath("bench/knn")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.PutModel("bench/knn", m); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := os.Remove(path); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
