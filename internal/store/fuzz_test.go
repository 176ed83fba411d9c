package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"mlaasbench/internal/codec"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/synth"
)

// FuzzDatasetDecoder throws arbitrary bytes at the MLDS parser. The
// invariants mirror internal/wire: never panic, never allocate past what
// the delivered bytes justify (every section offset is revalidated against
// the actual file size before use), and every failure is a returned error.
// `go test` runs the seed corpus on every check;
// `go test -fuzz FuzzDatasetDecoder ./internal/store` explores.
func FuzzDatasetDecoder(f *testing.F) {
	d := synth.GenerateClean(synth.Spec{Name: "fuzz-ds", Gen: synth.GenLinear, N: 20, D: 3, Noise: 0.2}, synth.Quick, 1)
	d.Kinds = []dataset.FeatureKind{dataset.Numeric, dataset.Categorical, dataset.Numeric}
	d.Columns = []string{"a", "b", "c"}
	valid, err := EncodeDataset(d)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	empty, err := EncodeDataset(&dataset.Dataset{Name: "e"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	// Truncations and garbage.
	f.Add(valid[:headerSize+3])
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{})
	f.Add([]byte("MLDS"))
	f.Add(bytes.Repeat([]byte{0xff}, headerSize+footerSize))
	// Forged header claiming a huge shape with no data behind it.
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(huge[8:], 1<<31)
	f.Add(huge)
	// Corrupted meta with a fixed-up CRC (drives the meta reader, not just
	// the checksum gate).
	meta := append([]byte(nil), valid...)
	meta[headerSize] ^= 0xff
	fixCRC(meta)
	f.Add(meta)

	f.Fuzz(func(t *testing.T, data []byte) {
		df, err := ReadDataset(data)
		if err != nil {
			return
		}
		// A successful parse must yield a self-consistent file: accessors
		// can't go out of bounds and the materialized dataset must be
		// rectangular with matching metadata arity.
		got := df.Dataset()
		if len(got.X) != df.Rows() || len(got.Y) != df.Rows() {
			t.Fatalf("rows %d but %d X / %d Y", df.Rows(), len(got.X), len(got.Y))
		}
		for _, row := range got.X {
			if len(row) != df.Cols() {
				t.Fatalf("row width %d, want %d", len(row), df.Cols())
			}
		}
		if len(got.Kinds) != 0 && len(got.Kinds) != df.Cols() {
			t.Fatalf("%d kinds for %d cols", len(got.Kinds), df.Cols())
		}
		if len(got.Columns) != 0 && len(got.Columns) != df.Cols() {
			t.Fatalf("%d columns for %d cols", len(got.Columns), df.Cols())
		}
		for j := 0; j < df.Cols(); j++ {
			col := df.Col(j)
			for i, v := range col {
				if math.Float64bits(v) != math.Float64bits(got.X[i][j]) {
					t.Fatal("Col view disagrees with Dataset materialization")
				}
			}
		}
	})
}

// FuzzModelDecoder throws arbitrary bytes at the MLMF parser, which fans
// into every model codec (params, scalers, trees, DAGs, kNN backing). The
// decoder must never panic, never over-allocate, and anything it accepts
// must re-encode cleanly.
func FuzzModelDecoder(f *testing.F) {
	full := synth.GenerateClean(synth.Spec{Name: "fuzz-m", Gen: synth.GenClusters, N: 60, D: 4, Noise: 0.3}, synth.Quick, 2)
	train := full.StratifiedSplit(0.7, rng.New(1)).Train
	for _, tc := range []struct {
		platform, classifier string
		feat                 pipeline.Feat
	}{
		{"local", "logreg", pipeline.Feat{Kind: "scaler", Name: "standard"}},
		{"local", "randomforest", pipeline.Feat{Kind: "none"}},
		{"local", "knn", pipeline.Feat{Kind: "none"}},
		{"local", "mlp", pipeline.Feat{Kind: "none"}},
		{"microsoft", "jungle", pipeline.Feat{Kind: "fisherlda"}},
		{"amazon", "logreg", pipeline.Feat{Kind: "none"}},
	} {
		p, err := platforms.New(tc.platform)
		if err != nil {
			f.Fatal(err)
		}
		cfg, err := p.Surface().DefaultConfig(tc.classifier)
		if err != nil {
			f.Fatal(err)
		}
		cfg.Feat = tc.feat
		m, err := p.Fit(cfg, train, 1)
		if err != nil {
			f.Fatal(err)
		}
		b, err := EncodeModel("fuzz/key", m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
		// Payload corruption with a fixed-up CRC, so mutations reach the
		// model codecs instead of dying at the checksum gate.
		mut := append([]byte(nil), b...)
		mut[mlmfHeaderSize+6] ^= 0xff
		fixCRC(mut)
		f.Add(mut)
	}
	f.Add(boolTagArtifact(f))
	f.Add([]byte{})
	f.Add([]byte("MLMF"))
	f.Add(bytes.Repeat([]byte{0x01}, mlmfHeaderSize+8))

	f.Fuzz(func(t *testing.T, data []byte) {
		key, m, err := DecodeModel(data)
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("nil model with nil error")
		}
		if _, err := EncodeModel(key, m); err != nil {
			t.Fatalf("accepted model fails to re-encode: %v", err)
		}
	})
}

// TestModelDecoderRefusesBoolParamTag: params are written as float, int or
// string only; an MLMF whose param carries the retired bool tag (4) is
// corrupt, an error and no panic.
func TestModelDecoderRefusesBoolParamTag(t *testing.T) {
	b := boolTagArtifact(t)
	if _, _, err := DecodeModel(b); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("DecodeModel = %v, want codec.ErrCorrupt", err)
	}
}

// boolTagArtifact encodes a local logreg model and rewrites the tag of its
// first "penalty" param from string (3) to the retired bool tag (4).
func boolTagArtifact(t testing.TB) []byte {
	p, err := platforms.New("local")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := p.Surface().DefaultConfig("logreg")
	if err != nil {
		t.Fatal(err)
	}
	train := synth.GenerateClean(synth.Spec{Name: "bool-tag", Gen: synth.GenLinear, N: 20, D: 2, Noise: 0.2}, synth.Quick, 1)
	m, err := p.Fit(cfg, train, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeModel("bool/key", m)
	if err != nil {
		t.Fatal(err)
	}
	key := append(codec.AppendString(nil, "penalty"), 3)
	i := bytes.Index(b, key)
	if i < 0 {
		t.Fatal("no penalty param in the artifact")
	}
	b[i+len(key)-1] = 4
	fixCRC(b)
	return b
}

// fixCRC recomputes the trailing CRC of an MLDS or MLMF buffer after a
// deliberate mutation, so fuzz seeds reach past the integrity gate. MLDS
// ends crc+trailer, MLMF ends crc.
func fixCRC(b []byte) {
	if len(b) >= headerSize+footerSize && string(b[:4]) == mldsMagic {
		binary.LittleEndian.PutUint32(b[len(b)-footerSize:], crc32.Checksum(b[:len(b)-footerSize], castagnoli))
		return
	}
	if len(b) >= mlmfHeaderSize+4 && string(b[:4]) == mlmfMagic {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], castagnoli))
	}
}
