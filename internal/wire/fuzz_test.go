package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzFrameDecoder throws arbitrary bytes at both stream decoders. The
// invariants: never panic, never allocate unboundedly (headers are
// validated against the frame limits before payloads are read, and
// payloads are read in chunks bounded by delivered bytes), and every
// failure is a returned error. Each input is also decoded on a Reader that
// has just decoded a known frame — the state a pooled Reader is in when a
// request arrives — and must then yield exactly what a fresh Reader yields:
// the same rows bit for bit, or the same failure and no rows. `go test`
// runs the seed corpus on every check; `go test -fuzz FuzzFrameDecoder
// ./internal/wire` explores.
func FuzzFrameDecoder(f *testing.F) {
	// Valid single matrix frame.
	seedA := AppendMatrixFrame(nil, [][]float64{{1.5, -2.5}, {3.25, 4}}, FlagLast)
	f.Add(seedA)
	// Valid multi-frame stream.
	f.Add(EncodeMatrixStream(nil, [][]float64{{1}, {2}, {3}}, 1))
	// Valid labels stream.
	f.Add(AppendLabelsFrame(nil, []int{1, 0, -3}, FlagLast))
	// Empty matrix frame.
	f.Add(AppendMatrixFrame(nil, nil, FlagLast))
	// Truncations and garbage.
	f.Add(AppendMatrixFrame(nil, [][]float64{{1, 2}}, FlagLast)[:HeaderSize+3])
	f.Add([]byte{})
	f.Add([]byte("MLWF"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// Forged header claiming a huge payload with no data behind it.
	huge := make([]byte, HeaderSize)
	putHeader(huge, Header{Rows: MaxFrameRows, Cols: 2})
	f.Add(huge)
	// Over-limit rows/cols.
	over := make([]byte, HeaderSize)
	putHeader(over, Header{Rows: 1, Cols: 1})
	binary.LittleEndian.PutUint32(over[8:], ^uint32(0))
	f.Add(over)
	// Unknown flags / reserved bytes / wrong version.
	bad := AppendMatrixFrame(nil, [][]float64{{9}}, 0)
	bad[5] |= 0x40
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := DecodeMatrixStream(bytes.NewReader(data))
		if err == nil {
			// Decoded matrices must be rectangular and within limits.
			if len(rows) > 0 {
				w := len(rows[0])
				for _, r := range rows {
					if len(r) != w {
						t.Fatalf("ragged decode: %d vs %d", len(r), w)
					}
				}
			}
		}
		if labels, err := DecodeLabelsStream(bytes.NewReader(data)); err == nil && labels == nil {
			t.Fatal("nil labels with nil error")
		}

		fresh := &Reader{r: bytes.NewReader(data)}
		reused := &Reader{r: bytes.NewReader(seedA)}
		if _, _, err := reused.NextMatrix(); err != nil {
			t.Fatalf("seed frame: %v", err)
		}
		reused.r = bytes.NewReader(data)
		for frame := 0; ; frame++ {
			want, wantLast, wantErr := fresh.NextMatrix()
			got, gotLast, gotErr := reused.NextMatrix()
			if (wantErr == nil) != (gotErr == nil) || wantLast != gotLast {
				t.Fatalf("frame %d: fresh (last=%v err=%v) vs reused (last=%v err=%v)", frame, wantLast, wantErr, gotLast, gotErr)
			}
			if wantErr != nil {
				if got != nil {
					t.Fatalf("frame %d: reused Reader returned rows with error %v", frame, gotErr)
				}
				break
			}
			if !bitsEqual(want, got) {
				t.Fatalf("frame %d: reused Reader decoded different rows", frame)
			}
			for _, r := range got {
				if cap(r) != len(r) {
					t.Fatalf("frame %d: row cap %d beyond len %d", frame, cap(r), len(r))
				}
			}
			if wantLast {
				break
			}
		}
	})
}
