package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"

	"mlaasbench/internal/raceflag"
	"mlaasbench/internal/rng"
)

// specials are the float64 values JSON cannot carry (or normalizes) and the
// binary codec must round-trip bit-exactly: quiet NaN, a payload-carrying
// NaN, ±Inf, and both zeros.
var specials = []float64{
	math.NaN(),
	math.Float64frombits(0x7ff8_0000_0000_0001),
	math.Float64frombits(0xfff0_0000_0000_0001),
	math.Inf(1),
	math.Inf(-1),
	math.Copysign(0, -1),
	0,
	math.MaxFloat64,
	math.SmallestNonzeroFloat64,
}

func bitsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func randMatrix(r *rng.RNG, rows, cols int, withSpecials bool) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			if withSpecials && r.Bernoulli(0.2) {
				m[i][j] = specials[r.Intn(len(specials))]
			} else {
				m[i][j] = r.Normal(0, 100)
			}
		}
	}
	return m
}

// TestMatrixRoundTripShapes round-trips random matrices over a spread of
// shapes — empty, 1-row, 1-col, wide, tall — asserting exact bit equality
// including special values.
func TestMatrixRoundTripShapes(t *testing.T) {
	r := rng.New(42).Split("wire/shapes")
	shapes := [][2]int{{0, 0}, {0, 5}, {1, 1}, {1, 17}, {3, 1}, {7, 4}, {64, 6}, {129, 3}, {512, 16}, {1000, 2}}
	for _, sh := range shapes {
		rows, cols := sh[0], sh[1]
		m := randMatrix(r, rows, cols, true)
		for _, chunk := range []int{0, 1, 7, rows} {
			body := EncodeMatrixStream(nil, m, chunk)
			got, err := DecodeMatrixStream(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("shape %dx%d chunk %d: decode: %v", rows, cols, chunk, err)
			}
			if len(got) != rows {
				t.Fatalf("shape %dx%d chunk %d: got %d rows", rows, cols, chunk, len(got))
			}
			if !bitsEqual(m, got) {
				t.Fatalf("shape %dx%d chunk %d: bits differ after round trip", rows, cols, chunk)
			}
		}
	}
}

// TestMatrixMatchesJSONOracle cross-checks the two codecs on payloads JSON
// can represent: a matrix round-tripped through encoding/json and through
// wire frames must land on identical bits.
func TestMatrixMatchesJSONOracle(t *testing.T) {
	r := rng.New(7).Split("wire/oracle")
	for trial := 0; trial < 20; trial++ {
		m := randMatrix(r, 1+r.Intn(40), 1+r.Intn(12), false)
		// -0 is JSON-representable in Go (marshals as "-0") — include it.
		m[0][0] = math.Copysign(0, -1)

		blob, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("json marshal: %v", err)
		}
		var viaJSON [][]float64
		if err := json.Unmarshal(blob, &viaJSON); err != nil {
			t.Fatalf("json unmarshal: %v", err)
		}

		viaWire, err := DecodeMatrixStream(bytes.NewReader(EncodeMatrixStream(nil, m, 0)))
		if err != nil {
			t.Fatalf("wire decode: %v", err)
		}
		if !bitsEqual(viaJSON, viaWire) {
			t.Fatalf("trial %d: JSON and wire round trips disagree", trial)
		}
	}
}

func TestLabelsRoundTrip(t *testing.T) {
	cases := [][]int{
		{},
		{0},
		{1, 0, 1, 1, 0},
		{-1, math.MaxInt32, math.MinInt32, 7},
	}
	for _, labels := range cases {
		body := AppendLabelsFrame(nil, labels, FlagLast)
		got, err := DecodeLabelsStream(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("labels %v: %v", labels, err)
		}
		if len(got) != len(labels) {
			t.Fatalf("labels %v: got %v", labels, got)
		}
		for i := range labels {
			if got[i] != labels[i] {
				t.Fatalf("labels %v: got %v", labels, got)
			}
		}
	}
}

// TestMultiFrameLabels stitches label frames the way the server writes a
// streamed response: one frame per request frame, last flagged.
func TestMultiFrameLabels(t *testing.T) {
	body := AppendLabelsFrame(nil, []int{1, 2}, 0)
	body = AppendLabelsFrame(body, []int{3}, 0)
	body = AppendLabelsFrame(body, []int{4, 5, 6}, FlagLast)
	got, err := DecodeLabelsStream(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4, 5, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

// TestStreamWithoutLastFlag: clean EOF on a frame boundary ends the stream
// even when no frame carried LAST (a tolerant reader, per the doc).
func TestStreamWithoutLastFlag(t *testing.T) {
	body := AppendMatrixFrame(nil, [][]float64{{1, 2}}, 0)
	body = AppendMatrixFrame(body, [][]float64{{3, 4}}, 0)
	got, err := DecodeMatrixStream(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1][1] != 4 {
		t.Fatalf("got %v", got)
	}
}

func TestNegotiates(t *testing.T) {
	yes := []string{
		ContentType,
		ContentType + "; charset=binary",
		"application/json, " + ContentType,
		"  " + ContentType + " ;q=0.9",
	}
	no := []string{"", "application/json", "text/csv", "application/x-mlaas-frames2"}
	for _, h := range yes {
		if !Negotiates(h) {
			t.Errorf("Negotiates(%q) = false, want true", h)
		}
	}
	for _, h := range no {
		if Negotiates(h) {
			t.Errorf("Negotiates(%q) = true, want false", h)
		}
	}
	// Both headers are walked on every predict: no list may be materialized.
	all := append(yes, no...)
	if n := testing.AllocsPerRun(100, func() {
		for _, h := range all {
			Negotiates(h)
		}
	}); n != 0 {
		t.Errorf("Negotiates allocates %v times per pass, want 0", n)
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := AppendMatrixFrame(nil, [][]float64{{1, 2}, {3, 4}}, FlagLast)

	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"bad magic":         corrupt(func(b []byte) { b[0] = 'X' }),
		"bad version":       corrupt(func(b []byte) { b[4] = 99 }),
		"unknown flags":     corrupt(func(b []byte) { b[5] |= 0x80 }),
		"reserved nonzero":  corrupt(func(b []byte) { b[6] = 1 }),
		"truncated header":  valid[:HeaderSize-3],
		"truncated payload": valid[:HeaderSize+5],
		"rows over limit": corrupt(func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:], MaxFrameRows+1)
		}),
		"cols over limit": corrupt(func(b []byte) {
			binary.LittleEndian.PutUint32(b[12:], MaxFrameCols+1)
		}),
		"payload over limit": corrupt(func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:], 1<<21)
			binary.LittleEndian.PutUint32(b[12:], 1<<13)
		}),
		"labels cols != 1": corrupt(func(b []byte) { b[5] |= FlagLabels }),
		"zero-width rows":  corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 0) }),
		"empty body":       {},
	}
	for name, body := range cases {
		_, err := DecodeMatrixStream(bytes.NewReader(body))
		if err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
			continue
		}
		if name != "empty body" && !errors.Is(err, ErrFormat) && err != io.EOF {
			t.Errorf("%s: error %v not tagged ErrFormat", name, err)
		}
	}

	// Frame-kind mismatches.
	if _, err := DecodeLabelsStream(bytes.NewReader(valid)); !errors.Is(err, ErrFormat) {
		t.Errorf("labels decode of matrix frame: %v, want ErrFormat", err)
	}
	lbl := AppendLabelsFrame(nil, []int{1}, FlagLast)
	if _, err := DecodeMatrixStream(bytes.NewReader(lbl)); !errors.Is(err, ErrFormat) {
		t.Errorf("matrix decode of labels frame: %v, want ErrFormat", err)
	}
}

// TestReaderBoundedAllocation: a header claiming a huge payload backed by a
// tiny body must fail after allocating roughly what arrived, not what was
// claimed — on a fresh Reader and on a pooled one that has already decoded
// a frame. The forged claim is the 64 MiB cap; the budget is 1 MiB (one
// 256 KiB growth step, twice over under the race detector, plus slack). A
// zero-width header claiming the row limit has a 0-byte payload, so no
// payload cap bounds it: it must be rejected from the header alone, before
// the Reader sizes one row slice per claimed row (96 MiB of slice headers).
func TestReaderBoundedAllocation(t *testing.T) {
	var head, zeroWidth [HeaderSize]byte
	putHeader(head[:], Header{Rows: MaxFrameRows, Cols: 2}) // 64 MiB claim
	putHeader(zeroWidth[:], Header{Flags: FlagLast, Rows: MaxFrameRows})
	bodies := map[string][]byte{
		"forged payload": append(head[:], 1, 2, 3),
		"zero width":     zeroWidth[:],
	}
	warm := AppendMatrixFrame(nil, [][]float64{{1, 2}}, FlagLast)

	for name, body := range bodies {
		d := new(Reader)
		for _, reused := range []bool{false, true} {
			if reused {
				d.r = bytes.NewReader(warm)
				if _, _, err := d.NextMatrix(); err != nil {
					t.Fatal(err)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d.r = bytes.NewReader(body)
			rows, _, err := d.NextMatrix()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrFormat) || rows != nil {
				t.Fatalf("%s reused=%v: got %d rows, err=%v, want no rows and ErrFormat", name, reused, len(rows), err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("%s reused=%v: forged header allocated %d bytes", name, reused, got)
			}
			if cap(d.flat) > 2 || cap(d.rows) > 1 {
				t.Errorf("%s reused=%v: buffers sized to %d floats, %d rows before the payload arrived", name, reused, cap(d.flat), cap(d.rows))
			}
		}
	}
}

// TestBufferPool: a get → append → put cycle allocates nothing at steady
// state (the pool hands the *[]byte itself back and forth), and a buffer
// that grew past the cap is dropped.
func TestBufferPool(t *testing.T) {
	bp := GetBuffer()
	if len(*bp) != 0 {
		t.Fatalf("pooled buffer has length %d", len(*bp))
	}
	m := [][]float64{{1, 2, 3}, {4, 5, 6}}
	*bp = AppendMatrixFrame(*bp, m, FlagLast)
	PutBuffer(bp)
	if bp := GetBuffer(); len(*bp) != 0 {
		t.Fatalf("recycled buffer has length %d", len(*bp))
	} else {
		PutBuffer(bp)
	}
	if !raceflag.Enabled {
		if n := testing.AllocsPerRun(100, func() {
			bp := GetBuffer()
			*bp = AppendMatrixFrame(*bp, m, FlagLast)
			PutBuffer(bp)
		}); n != 0 {
			t.Errorf("get/append/put allocates %v times per cycle, want 0", n)
		}
	}
	// Oversized buffers must be dropped, not pooled.
	big := make([]byte, maxPooledFrame+1)
	PutBuffer(&big)
	for i := 0; i < 8; i++ {
		if bp := GetBuffer(); cap(*bp) > maxPooledFrame {
			t.Fatalf("pool handed out a %d-byte buffer", cap(*bp))
		}
	}
}

// TestReaderPoolDropsOversize mirrors TestBufferPool for Readers: one that
// decoded a frame past the cap must not come back out of the pool, whichever
// of its three buffers outgrew it.
func TestReaderPoolDropsOversize(t *testing.T) {
	wide := make([][]float64, 3) // payload and backing over the cap, 3 row headers
	for i := range wide {
		wide[i] = make([]float64, MaxFrameCols)
	}
	tall := make([][]float64, maxPooledFrame/24+1)
	for i := range tall {
		tall[i] = []float64{1} // only the row headers are over the cap
	}
	for name, m := range map[string][][]float64{"payload": wide, "row headers": tall} {
		d := GetReader(bytes.NewReader(AppendMatrixFrame(nil, m, FlagLast)))
		if rows, _, err := d.NextMatrix(); err != nil || len(rows) != len(m) {
			t.Fatalf("%s: decode: %d rows, %v", name, len(rows), err)
		}
		PutReader(d)
		for i := 0; i < 8; i++ {
			if got := GetReader(nil); got == d {
				t.Fatalf("%s: oversize Reader was pooled", name)
			}
		}
	}
	// A Reader inside the cap does come back (the race detector makes the
	// pool drop at random, so only the plain build can say so; one P, so
	// the Get looks in the slot the Put filled).
	if !raceflag.Enabled {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		d := GetReader(bytes.NewReader(AppendMatrixFrame(nil, [][]float64{{1, 2}}, FlagLast)))
		if _, _, err := d.NextMatrix(); err != nil {
			t.Fatal(err)
		}
		PutReader(d)
		if got := GetReader(nil); got != d {
			t.Error("in-cap Reader was not pooled")
		}
	}
}

// TestReaderSteadyStateAllocs: at a fixed shape a reused Reader decodes
// without allocating — payload scratch, float backing and row headers are
// all kept from the previous frame.
func TestReaderSteadyStateAllocs(t *testing.T) {
	m := randMatrix(rng.New(5).Split("wire/steady"), 256, 32, false)
	body := AppendMatrixFrame(nil, m, FlagLast)
	src := bytes.NewReader(body)
	d := &Reader{r: src}
	decode := func() {
		src.Reset(body)
		rows, _, err := d.NextMatrix()
		if err != nil || len(rows) != len(m) {
			t.Fatalf("decode: %d rows, %v", len(rows), err)
		}
	}
	decode() // warm-up sizes the three buffers
	if n := testing.AllocsPerRun(100, decode); n != 0 {
		t.Errorf("steady-state NextMatrix allocates %v times per frame, want 0", n)
	}
	rows, _, _ := d.NextMatrix() // EOF: nothing returned
	if rows != nil {
		t.Errorf("rows returned at EOF")
	}
	src.Reset(body)
	rows, _, _ = d.NextMatrix()
	if !bitsEqual(m, rows) {
		t.Error("reused decode differs from the encoded matrix")
	}
}

// TestReaderNoStaleRows: a big frame of sentinel values, then a small frame
// on the same pooled Reader. The second decode must be exactly the second
// frame — row count, and len and cap of every row, so nothing of the first
// frame is reachable through the result — and a truncated second frame must
// return an error and no rows at all.
func TestReaderNoStaleRows(t *testing.T) {
	const sentinel = 1234.5
	big := make([][]float64, 512)
	for i := range big {
		big[i] = make([]float64, 16)
		for j := range big[i] {
			big[i][j] = sentinel
		}
	}
	small := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	first := AppendMatrixFrame(nil, big, FlagLast)
	second := AppendMatrixFrame(nil, small, FlagLast)

	for name, tc := range map[string]struct {
		body    []byte
		wantErr bool
	}{
		"whole":               {second, false},
		"truncated payload":   {second[:len(second)-5], true},
		"truncated header":    {second[:HeaderSize-1], true},
		"header then nothing": {second[:HeaderSize], true},
	} {
		d := GetReader(bytes.NewReader(first))
		if rows, _, err := d.NextMatrix(); err != nil || len(rows) != 512 {
			t.Fatalf("%s: first frame: %d rows, %v", name, len(rows), err)
		}
		PutReader(d)

		d = GetReader(bytes.NewReader(tc.body))
		rows, last, err := d.NextMatrix()
		if tc.wantErr {
			if !errors.Is(err, ErrFormat) || rows != nil || last {
				t.Errorf("%s: got rows=%v last=%v err=%v, want nil rows and ErrFormat", name, rows, last, err)
			}
			PutReader(d)
			continue
		}
		if err != nil || !last {
			t.Fatalf("%s: second frame: last=%v err=%v", name, last, err)
		}
		if len(rows) != len(small) || cap(rows) != len(small) {
			t.Fatalf("%s: got %d rows (cap %d), want %d", name, len(rows), cap(rows), len(small))
		}
		for i, row := range rows {
			if len(row) != 2 || cap(row) != 2 {
				t.Errorf("%s: row %d has len %d cap %d, want 2 and 2", name, i, len(row), cap(row))
			}
			for j, v := range row {
				if v != small[i][j] {
					t.Errorf("%s: row %d col %d = %v, want %v", name, i, j, v, small[i][j])
				}
			}
		}
		PutReader(d)
	}
}

// TestDecodeMatrixStreamOwnsResult: the copying helper's rows survive later
// decodes through the pool, across frames of one stream and across streams.
func TestDecodeMatrixStreamOwnsResult(t *testing.T) {
	r := rng.New(9).Split("wire/owns")
	a := randMatrix(r, 40, 6, true)
	got, err := DecodeMatrixStream(bytes.NewReader(EncodeMatrixStream(nil, a, 7)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := DecodeMatrixStream(bytes.NewReader(EncodeMatrixStream(nil, randMatrix(r, 40, 6, false), 0))); err != nil {
			t.Fatal(err)
		}
	}
	if !bitsEqual(a, got) {
		t.Fatal("rows returned by DecodeMatrixStream changed after later decodes")
	}
}
