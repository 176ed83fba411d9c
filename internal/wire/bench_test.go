package wire

import (
	"bytes"
	"encoding/json"
	"testing"

	"mlaasbench/internal/rng"
)

// The codec pair the wire path replaces: a 512x16 predict body (the
// client's default batch upper bound) through encoding/json versus frames.
// These run under mlaas-perf (the WireCodec series in perf/results/), so
// the JSON-vs-binary gap is tracked over time, not just claimed once.

func benchMatrix() [][]float64 {
	return randMatrix(rng.New(3).Split("wire/bench"), 512, 16, false)
}

func BenchmarkWireCodecEncode(b *testing.B) {
	m := benchMatrix()
	bp := GetBuffer()
	defer PutBuffer(bp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*bp = EncodeMatrixStream((*bp)[:0], m, 0)
	}
	b.SetBytes(int64(len(*bp)))
}

// BenchmarkWireCodecDecode is the server's steady state: one pooled Reader
// per request, the frame decoded in place.
func BenchmarkWireCodecDecode(b *testing.B) {
	body := EncodeMatrixStream(nil, benchMatrix(), 0)
	src := bytes.NewReader(body)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(body)
		d := GetReader(src)
		if _, _, err := d.NextMatrix(); err != nil {
			b.Fatal(err)
		}
		PutReader(d)
	}
}

// BenchmarkWireCodecDecodeMatrixStream is the copying helper on the same
// body: caller-owned rows, one flat backing per frame. (A sibling rather
// than a b.Run sub-benchmark, because a benchmark that calls b.Run is not
// itself measured and the WireCodecDecode series must continue.)
func BenchmarkWireCodecDecodeMatrixStream(b *testing.B) {
	body := EncodeMatrixStream(nil, benchMatrix(), 0)
	src := bytes.NewReader(body)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(body)
		if _, err := DecodeMatrixStream(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireCodecEncodeJSON(b *testing.B) {
	m := benchMatrix()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(m); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkWireCodecDecodeJSON(b *testing.B) {
	m := benchMatrix()
	body, err := json.Marshal(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out [][]float64
		if err := json.Unmarshal(body, &out); err != nil {
			b.Fatal(err)
		}
	}
}
