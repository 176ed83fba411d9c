// Package wire is the binary serving codec: a length-prefixed frame format
// for predict request/response bodies that replaces reflection-driven JSON
// on the hot path. After the fit-once cache (PR 3) and the batch kernels
// (PR 5), profiles put the predict endpoint's time in encoding/json, not
// the forward pass — the same cloud-side serving overhead MLBench measures
// dominating end-to-end MLaaS latency. A frame carries raw little-endian
// float64 rows that decode into one flat backing slice feeding the GEMM
// tiles: zero reflection, and exact bit round-trips for NaN, ±Inf and -0,
// which JSON either mangles or rejects outright.
//
// Ownership. A Reader owns its payload scratch, its flat float64 backing
// and its row-header slice, and reuses all three from frame to frame and —
// through the GetReader/PutReader pool — from request to request, so a
// steady-state decode allocates nothing. The one contract that buys this:
// rows returned by NextMatrix are valid until the next call on that Reader
// or its return to the pool. A consumer that finishes with each frame
// before reading the next (the predict handler) needs nothing else; one
// that keeps rows copies them, which is what DecodeMatrixStream does. Every
// cell of a returned row is written from the current payload and nothing is
// returned on error, so a reused Reader never shows one request another's
// instances. Labels (NextLabels, DecodeLabelsStream) and encode results are
// always caller-owned.
//
// Frame layout (all integers little-endian):
//
//	offset size field
//	0      4    magic "MLWF"
//	4      1    version (currently 1)
//	5      1    flags: bit0 LAST (final frame of the stream)
//	            bit1 LABELS (payload is int64 labels, not float64 rows)
//	6      2    reserved, must be zero
//	8      4    rows
//	12     4    cols (labels frames: must be 1)
//	16     -    payload: rows*cols float64, or rows int64 for labels
//
// A body is one or more frames; the stream ends at a frame with the LAST
// flag or at clean EOF on a frame boundary. Multi-frame bodies are the
// streaming form: a large predict pipelines through the server chunk by
// chunk over one connection instead of re-dialing per chunk or decoding
// one giant matrix allocation.
//
// The codec is negotiated over HTTP: requests declare a binary body with
// Content-Type: application/x-mlaas-frames and ask for a binary response
// with the same value in Accept. JSON remains the default and the
// compatibility oracle — predictions are asserted byte-identical across
// codecs. Error responses are always the JSON error envelope regardless
// of Accept, so failures stay debuggable with curl.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
)

// ContentType is the media type both sides use to negotiate binary frames
// (request bodies via Content-Type, response bodies via Accept).
const ContentType = "application/x-mlaas-frames"

const (
	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 16
	// Version is the format version this package reads and writes.
	Version = 1

	// FlagLast marks the final frame of a stream.
	FlagLast byte = 1 << 0
	// FlagLabels marks an int64 label payload instead of float64 rows.
	FlagLabels byte = 1 << 1

	flagsKnown = FlagLast | FlagLabels
)

// Decode limits. They bound what a single frame header can demand before
// any payload bytes arrive, so a forged header cannot make a reader
// allocate or loop unboundedly (the fuzz target leans on this).
const (
	// MaxFrameRows caps rows per frame.
	MaxFrameRows = 1 << 22
	// MaxFrameCols caps columns per frame.
	MaxFrameCols = 1 << 16
	// MaxFramePayload caps a frame's payload size in bytes (64 MiB).
	MaxFramePayload = 1 << 26
)

var magic = [4]byte{'M', 'L', 'W', 'F'}

// ErrFormat tags every malformed-frame error so transports can map codec
// failures to a 400 instead of a 500.
var ErrFormat = errors.New("wire: malformed frame")

func formatErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFormat, fmt.Sprintf(format, args...))
}

// Negotiates reports whether an HTTP header value (Content-Type or Accept)
// selects the binary frame codec. Parameters after ';' are ignored;
// Accept-style lists match if any element is the frame media type.
func Negotiates(header string) bool {
	for header != "" {
		var part string
		part, header, _ = strings.Cut(header, ",")
		mt, _, _ := strings.Cut(part, ";")
		if strings.TrimSpace(mt) == ContentType {
			return true
		}
	}
	return false
}

// Header is one parsed frame header.
type Header struct {
	Flags byte
	Rows  int
	Cols  int
}

// Last reports the LAST flag.
func (h Header) Last() bool { return h.Flags&FlagLast != 0 }

// Labels reports the LABELS flag.
func (h Header) Labels() bool { return h.Flags&FlagLabels != 0 }

// payloadBytes is the exact payload size the header demands. Both label
// and matrix payloads are 8-byte words, so rows*cols*8 covers both
// (labels frames carry cols == 1).
func (h Header) payloadBytes() int { return h.Rows * h.Cols * 8 }

func putHeader(dst []byte, h Header) {
	copy(dst, magic[:])
	dst[4] = Version
	dst[5] = h.Flags
	dst[6], dst[7] = 0, 0
	binary.LittleEndian.PutUint32(dst[8:], uint32(h.Rows))
	binary.LittleEndian.PutUint32(dst[12:], uint32(h.Cols))
}

func parseHeader(b []byte) (Header, error) {
	if b[0] != magic[0] || b[1] != magic[1] || b[2] != magic[2] || b[3] != magic[3] {
		return Header{}, formatErr("bad magic %q", b[:4])
	}
	if b[4] != Version {
		return Header{}, formatErr("unsupported version %d (want %d)", b[4], Version)
	}
	h := Header{Flags: b[5]}
	if h.Flags&^flagsKnown != 0 {
		return Header{}, formatErr("unknown flag bits 0x%02x", h.Flags&^flagsKnown)
	}
	if b[6] != 0 || b[7] != 0 {
		return Header{}, formatErr("reserved header bytes must be zero")
	}
	rows := binary.LittleEndian.Uint32(b[8:])
	cols := binary.LittleEndian.Uint32(b[12:])
	if rows > MaxFrameRows {
		return Header{}, formatErr("frame rows %d exceed limit %d", rows, MaxFrameRows)
	}
	if cols > MaxFrameCols {
		return Header{}, formatErr("frame cols %d exceed limit %d", cols, MaxFrameCols)
	}
	h.Rows, h.Cols = int(rows), int(cols)
	if h.Labels() && h.Cols != 1 {
		return Header{}, formatErr("labels frame cols %d (want 1)", h.Cols)
	}
	if h.payloadBytes() > MaxFramePayload {
		return Header{}, formatErr("frame payload %d bytes exceeds limit %d", h.payloadBytes(), MaxFramePayload)
	}
	return h, nil
}

// maxPooledFrame caps what a pooled encode buffer or Reader may hold on to.
// Anything that grew past it is dropped on return, so one huge frame cannot
// pin memory.
const maxPooledFrame = 1 << 20

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// GetBuffer hands out a pooled scratch buffer (length 0). Callers that
// assemble multi-frame bodies with AppendMatrixFrame/AppendLabelsFrame
// append through the pointer (*bp = Append…(*bp, …)) and return the same
// pointer with PutBuffer; handing the pointer back and forth is what keeps
// a get → append → put cycle allocation-free.
func GetBuffer() *[]byte {
	bp := bufPool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// PutBuffer returns a buffer obtained from GetBuffer.
func PutBuffer(bp *[]byte) {
	if cap(*bp) <= maxPooledFrame {
		bufPool.Put(bp)
	}
}

// AppendMatrixFrame appends one float64 matrix frame to dst and returns
// the extended slice. Rows must be rectangular; the caller guarantees it
// (the service validates widths before encoding). Float bits are copied
// verbatim, so NaN payloads and -0 survive exactly.
func AppendMatrixFrame(dst []byte, rows [][]float64, flags byte) []byte {
	cols := 0
	if len(rows) > 0 {
		cols = len(rows[0])
	}
	n := len(dst)
	dst = append(dst, make([]byte, HeaderSize+len(rows)*cols*8)...)
	putHeader(dst[n:], Header{Flags: flags &^ FlagLabels, Rows: len(rows), Cols: cols})
	off := n + HeaderSize
	for _, row := range rows {
		for _, v := range row {
			binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(v))
			off += 8
		}
	}
	return dst
}

// MarkLast sets the LAST flag on the frame whose header starts at off in
// an assembled body. Streaming writers append frames as input arrives and
// only learn which one was final when the input ends; they patch the flag
// in place instead of buffering a frame of lookahead.
func MarkLast(body []byte, off int) { body[off+5] |= FlagLast }

// AppendLabelsFrame appends one int64 labels frame to dst.
func AppendLabelsFrame(dst []byte, labels []int, flags byte) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, HeaderSize+len(labels)*8)...)
	putHeader(dst[n:], Header{Flags: flags | FlagLabels, Rows: len(labels), Cols: 1})
	off := n + HeaderSize
	for _, v := range labels {
		binary.LittleEndian.PutUint64(dst[off:], uint64(int64(v)))
		off += 8
	}
	return dst
}

// EncodeMatrixStream appends a whole instance matrix to dst as a stream of
// frames of at most chunk rows each (chunk <= 0 means one frame), the last
// frame flagged LAST. This is the client-side batched-predict body: one
// HTTP request, many frames, no giant contiguous payload buffer on the
// decode side.
func EncodeMatrixStream(dst []byte, rows [][]float64, chunk int) []byte {
	if chunk <= 0 || chunk > len(rows) {
		chunk = len(rows)
	}
	if len(rows) == 0 {
		return AppendMatrixFrame(dst, nil, FlagLast)
	}
	for start := 0; start < len(rows); start += chunk {
		end := start + chunk
		var flags byte
		if end >= len(rows) {
			end = len(rows)
			flags = FlagLast
		}
		dst = AppendMatrixFrame(dst, rows[start:end], flags)
	}
	return dst
}

// Reader decodes a stream of frames. It reads payloads in bounded chunks,
// so allocation tracks bytes actually delivered, not what a (possibly
// forged) header claims, and it reuses its payload scratch, float64 backing
// and row headers from frame to frame: see the package comment for the
// ownership contract on NextMatrix.
type Reader struct {
	r       io.Reader
	scratch []byte      // payload bytes of the current frame
	flat    []float64   // backing of the rows NextMatrix returned last
	rows    [][]float64 // row headers into flat
	head    [HeaderSize]byte
}

var readerPool = sync.Pool{New: func() any { return new(Reader) }}

// GetReader hands out a pooled Reader decoding frames from r. Return it
// with PutReader once nothing decoded through it is referenced any more.
func GetReader(r io.Reader) *Reader {
	d := readerPool.Get().(*Reader)
	d.r = r
	return d
}

// PutReader returns a Reader to the pool. Rows it returned from NextMatrix
// are invalid from here on. A Reader that grew past maxPooledFrame in any
// of its buffers is dropped instead.
func PutReader(d *Reader) {
	d.r = nil
	const rowHeader = 24 // bytes per []float64 header
	if cap(d.scratch) <= maxPooledFrame && 8*cap(d.flat) <= maxPooledFrame && rowHeader*cap(d.rows) <= maxPooledFrame {
		readerPool.Put(d)
	}
}

// next reads and validates the next frame header. Clean EOF on the frame
// boundary returns io.EOF; a partial header is ErrUnexpectedEOF.
func (d *Reader) next() (Header, error) {
	if _, err := io.ReadFull(d.r, d.head[:]); err != nil {
		if err == io.EOF {
			return Header{}, io.EOF
		}
		return Header{}, formatErr("truncated header: %v", err)
	}
	return parseHeader(d.head[:])
}

// readPayload returns the next n payload bytes, reading in capped chunks
// so a truncated stream never allocates more than roughly what arrived.
// The returned slice aliases the reader's scratch buffer and is only valid
// until the next call.
func (d *Reader) readPayload(n int) ([]byte, error) {
	const step = 1 << 18 // 256 KiB
	if cap(d.scratch) < n && n <= step {
		d.scratch = make([]byte, n)
	}
	if cap(d.scratch) >= n {
		buf := d.scratch[:n]
		if _, err := io.ReadFull(d.r, buf); err != nil {
			return nil, formatErr("truncated payload: %v", err)
		}
		return buf, nil
	}
	// Large payload: grow with the data, not the claim.
	buf := d.scratch[:0]
	for len(buf) < n {
		chunk := n - len(buf)
		if chunk > step {
			chunk = step
		}
		start := len(buf)
		buf = append(buf, make([]byte, chunk)...)
		if _, err := io.ReadFull(d.r, buf[start:]); err != nil {
			return nil, formatErr("truncated payload: %v", err)
		}
	}
	d.scratch = buf
	return buf, nil
}

// NextMatrix decodes the next float64 matrix frame into the Reader's flat
// backing, the row slices indexing into it, ready to feed the batch
// kernels. The rows are valid until the next call on d or its return to the
// pool. The backing is sized only once the payload has fully arrived, every
// cell of every returned row is overwritten from it, and rows and each row
// are capped at their length, so nothing of an earlier frame is reachable
// through the result. It returns io.EOF at clean end of stream; last
// reports the LAST flag.
func (d *Reader) NextMatrix() (rows [][]float64, last bool, err error) {
	h, err := d.next()
	if err != nil {
		return nil, false, err
	}
	if h.Labels() {
		return nil, false, formatErr("unexpected labels frame (want matrix)")
	}
	payload, err := d.readPayload(h.payloadBytes())
	if err != nil {
		return nil, false, err
	}
	n := h.Rows * h.Cols
	if cap(d.flat) < n {
		d.flat = make([]float64, n)
	}
	flat := d.flat[:n]
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
	}
	if cap(d.rows) < h.Rows {
		d.rows = make([][]float64, h.Rows)
	}
	rows = d.rows[:h.Rows:h.Rows]
	for i := range rows {
		rows[i] = flat[i*h.Cols : (i+1)*h.Cols : (i+1)*h.Cols]
	}
	return rows, h.Last(), nil
}

// NextLabels decodes the next labels frame into a fresh caller-owned
// slice. io.EOF at clean end of stream.
func (d *Reader) NextLabels() (labels []int, last bool, err error) {
	h, err := d.next()
	if err != nil {
		return nil, false, err
	}
	if !h.Labels() {
		return nil, false, formatErr("unexpected matrix frame (want labels)")
	}
	payload, err := d.readPayload(h.payloadBytes())
	if err != nil {
		return nil, false, err
	}
	labels = make([]int, h.Rows)
	for i := range labels {
		labels[i] = int(int64(binary.LittleEndian.Uint64(payload[i*8:])))
	}
	return labels, h.Last(), nil
}

// DecodeLabelsStream decodes every labels frame of body (the client side
// of a predict response) into one caller-owned label slice.
func DecodeLabelsStream(body io.Reader) ([]int, error) {
	d := GetReader(body)
	defer PutReader(d)
	var out []int
	for {
		labels, lastFrame, err := d.NextLabels()
		if err == io.EOF {
			if out == nil {
				return nil, formatErr("empty stream")
			}
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = labels
		} else {
			out = append(out, labels...)
		}
		if lastFrame {
			return out, nil
		}
	}
}

// DecodeMatrixStream decodes every matrix frame of body into one
// caller-owned instance matrix. It accumulates rows across frames, so it
// copies each frame out of the Reader (one flat backing per frame); the
// server consumes frames one at a time through a Reader instead.
func DecodeMatrixStream(body io.Reader) ([][]float64, error) {
	d := GetReader(body)
	defer PutReader(d)
	var out [][]float64
	seen := false
	for {
		rows, lastFrame, err := d.NextMatrix()
		if err == io.EOF {
			if !seen {
				return nil, formatErr("empty stream")
			}
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		seen = true
		out = appendRowsCopy(out, rows)
		if lastFrame {
			return out, nil
		}
	}
}

// appendRowsCopy appends a copy of rows (a rectangular frame) to dst, the
// copies sharing one flat backing.
func appendRowsCopy(dst, rows [][]float64) [][]float64 {
	if len(rows) == 0 {
		return dst
	}
	cols := len(rows[0])
	flat := make([]float64, len(rows)*cols)
	dst = slices.Grow(dst, len(rows))
	for i, row := range rows {
		cp := flat[i*cols : (i+1)*cols : (i+1)*cols]
		copy(cp, row)
		dst = append(dst, cp)
	}
	return dst
}
