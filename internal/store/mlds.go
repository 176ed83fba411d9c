// Package store implements the durable artifact formats behind warm
// restarts: MLDS, a columnar binary dataset layout whose float64 sections
// mmap as zero-copy slices, and MLMF, a fitted-model artifact keyed by the
// service's (platform, dataset, config, seed) cache key. Both formats are
// versioned, little-endian, CRC-protected, and decoded under the same
// discipline as internal/wire: explicit limits, counts validated against
// the delivered bytes before any allocation, errors instead of panics.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"unsafe"

	"mlaasbench/internal/codec"
	"mlaasbench/internal/dataset"
)

// MLDS file layout (all integers little-endian):
//
//	offset  0: magic "MLDS"
//	offset  4: u16 version (currently 1)
//	offset  6: u16 flags (reserved, 0)
//	offset  8: u64 rows
//	offset 16: u64 cols
//	offset 24: u64 metaOff (= 64)
//	offset 32: u64 metaLen
//	offset 40: u64 yOff  — labels, rows × i64, 8-byte aligned
//	offset 48: u64 xOff  — features, column-major: column j's rows × f64
//	            start at xOff + j·rows·8; 8-byte aligned
//	offset 56: u64 reserved (0)
//	metaOff  : meta section (codec: name, domain, linear, kinds, columns)
//	yOff     : label section
//	xOff     : feature section
//	size-8   : u32 CRC32-C over bytes [0, size-8), then trailer "SDLM"
//
// The 8-byte alignment of yOff/xOff plus the page alignment of mmap means
// the label and column sections can be reinterpreted in place as []int and
// []float64 on little-endian 64-bit hosts — no decode, no copy.
const (
	mldsMagic   = "MLDS"
	mldsTrailer = "SDLM"
	mldsVersion = 1
	headerSize  = 64
	footerSize  = 8

	maxRows    = 1 << 32
	maxCols    = 1 << 24
	maxMetaLen = 1 << 24
	maxColName = 1 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether the running CPU stores integers
// little-endian; the zero-copy reinterpretation paths require it.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// File is an opened MLDS dataset. The underlying bytes come from an mmap
// (zero-copy views) or a plain read (byte-identical, views fall back to
// copies on exotic hosts); both parse through the same code path.
type File struct {
	data   []byte
	mapped bool
	f      *os.File

	rows, cols int
	yOff, xOff int

	name    string
	domain  dataset.Domain
	linear  bool
	kinds   []dataset.FeatureKind
	columns []string
}

// EncodeDataset serializes a dataset to the MLDS layout. The dataset must
// be rectangular (ragged inputs error, they cannot be stored columnar).
func EncodeDataset(d *dataset.Dataset) ([]byte, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	rows, cols := d.N(), d.D()

	meta := codec.AppendString(nil, d.Name)
	meta = codec.AppendString(meta, string(d.Domain))
	meta = codec.AppendBool(meta, d.Linear)
	meta = codec.AppendU32(meta, uint32(len(d.Kinds)))
	for _, k := range d.Kinds {
		meta = codec.AppendU8(meta, uint8(k))
	}
	meta = codec.AppendU32(meta, uint32(len(d.Columns)))
	for _, c := range d.Columns {
		meta = codec.AppendString(meta, c)
	}
	if len(meta) > maxMetaLen {
		return nil, fmt.Errorf("store: meta section %d bytes exceeds %d", len(meta), maxMetaLen)
	}

	yOff := align8(headerSize + len(meta))
	xOff := yOff + rows*8
	size := xOff + rows*cols*8 + footerSize

	b := make([]byte, headerSize, size)
	copy(b, mldsMagic)
	binary.LittleEndian.PutUint16(b[4:], mldsVersion)
	binary.LittleEndian.PutUint64(b[8:], uint64(rows))
	binary.LittleEndian.PutUint64(b[16:], uint64(cols))
	binary.LittleEndian.PutUint64(b[24:], headerSize)
	binary.LittleEndian.PutUint64(b[32:], uint64(len(meta)))
	binary.LittleEndian.PutUint64(b[40:], uint64(yOff))
	binary.LittleEndian.PutUint64(b[48:], uint64(xOff))

	b = append(b, meta...)
	for len(b) < yOff {
		b = append(b, 0)
	}
	for _, y := range d.Y {
		b = codec.AppendI64(b, int64(y))
	}
	// Column-major: all of column j contiguous, bit patterns preserved.
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			b = codec.AppendF64(b, d.X[i][j])
		}
	}
	b = codec.AppendU32(b, crc32.Checksum(b, castagnoli))
	b = append(b, mldsTrailer...)
	return b, nil
}

// WriteDataset writes the dataset to path atomically (tmp + rename).
func WriteDataset(path string, d *dataset.Dataset) error {
	b, err := EncodeDataset(d)
	if err != nil {
		return err
	}
	return atomicWrite(path, b)
}

// OpenDataset opens an MLDS file, mmap-backed where the platform supports
// it and via a plain read everywhere else. Both paths see identical bytes.
func OpenDataset(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if data, ok, err := mapFile(f, st.Size()); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: mmap %s: %w", path, err)
	} else if ok {
		df, perr := parseDataset(data)
		if perr != nil {
			unmapFile(data)
			f.Close()
			return nil, fmt.Errorf("store: %s: %w", path, perr)
		}
		df.mapped, df.f = true, f
		return df, nil
	}
	data, err := os.ReadFile(path)
	f.Close()
	if err != nil {
		return nil, err
	}
	df, perr := ReadDataset(data)
	if perr != nil {
		return nil, fmt.Errorf("store: %s: %w", path, perr)
	}
	return df, nil
}

// ReadDataset parses an MLDS payload held fully in memory — the portable
// fallback path and the fuzz entry point. The returned File aliases data.
func ReadDataset(data []byte) (*File, error) {
	return parseDataset(data)
}

func parseDataset(data []byte) (*File, error) {
	size := len(data)
	if size < headerSize+footerSize {
		return nil, codecErrf("file %d bytes, need at least %d", size, headerSize+footerSize)
	}
	if string(data[:4]) != mldsMagic {
		return nil, codecErrf("bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != mldsVersion {
		return nil, codecErrf("version %d, want %d", v, mldsVersion)
	}
	if string(data[size-4:]) != mldsTrailer {
		return nil, codecErrf("bad trailer %q", data[size-4:])
	}
	want := binary.LittleEndian.Uint32(data[size-footerSize:])
	if got := crc32.Checksum(data[:size-footerSize], castagnoli); got != want {
		return nil, codecErrf("CRC mismatch: file says %08x, payload is %08x", want, got)
	}

	rows := binary.LittleEndian.Uint64(data[8:])
	cols := binary.LittleEndian.Uint64(data[16:])
	metaOff := binary.LittleEndian.Uint64(data[24:])
	metaLen := binary.LittleEndian.Uint64(data[32:])
	yOff := binary.LittleEndian.Uint64(data[40:])
	xOff := binary.LittleEndian.Uint64(data[48:])
	if rows > maxRows || cols > maxCols {
		return nil, codecErrf("shape %d×%d exceeds limits", rows, cols)
	}
	if metaOff != headerSize || metaLen > maxMetaLen {
		return nil, codecErrf("meta section %d+%d out of range", metaOff, metaLen)
	}
	// Every section boundary is recomputed from the shape and checked
	// against the header and the actual file size, so a forged header can
	// neither read out of bounds nor imply an allocation the delivered
	// bytes don't back.
	if yOff != uint64(align8(int(headerSize+metaLen))) {
		return nil, codecErrf("label section at %d, want %d", yOff, align8(int(headerSize+metaLen)))
	}
	if xOff != yOff+rows*8 {
		return nil, codecErrf("feature section at %d, want %d", xOff, yOff+rows*8)
	}
	if wantSize := xOff + rows*cols*8 + footerSize; wantSize != uint64(size) {
		return nil, codecErrf("file is %d bytes, shape implies %d", size, wantSize)
	}

	f := &File{
		data: data,
		rows: int(rows), cols: int(cols),
		yOff: int(yOff), xOff: int(xOff),
	}
	r := codec.NewReader(data[headerSize : headerSize+metaLen])
	f.name = r.String(maxColName)
	f.domain = dataset.Domain(r.String(maxColName))
	f.linear = r.Bool()
	if n := r.Count(maxCols, 1); r.Err() == nil && n > 0 {
		if uint64(n) != cols {
			r.Fail("%d kinds for %d columns", n, cols)
		}
		f.kinds = make([]dataset.FeatureKind, n)
		for i := range f.kinds {
			f.kinds[i] = dataset.FeatureKind(r.U8())
		}
	}
	if n := r.Count(maxCols, 4); r.Err() == nil && n > 0 {
		if uint64(n) != cols {
			r.Fail("%d column names for %d columns", n, cols)
		}
		f.columns = make([]string, n)
		for i := range f.columns {
			f.columns[i] = r.String(maxColName)
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, codecErrf("%d trailing bytes in meta section", r.Remaining())
	}
	return f, nil
}

// Rows returns the number of samples.
func (f *File) Rows() int { return f.rows }

// Cols returns the number of features.
func (f *File) Cols() int { return f.cols }

// Name returns the stored dataset name.
func (f *File) Name() string { return f.name }

// Col returns column j's values. On little-endian 64-bit hosts with the
// file mapped or read into aligned memory this is a zero-copy view of the
// file bytes — treat it as read-only. Elsewhere it decodes into a fresh
// slice with identical bit patterns.
func (f *File) Col(j int) []float64 {
	if j < 0 || j >= f.cols {
		panic(fmt.Sprintf("store: column %d of %d", j, f.cols))
	}
	b := f.data[f.xOff+j*f.rows*8 : f.xOff+(j+1)*f.rows*8]
	if v, ok := f64view(b); ok {
		return v
	}
	out := make([]float64, f.rows)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// Labels returns the label vector, zero-copy where the host allows (see
// Col). Treat a zero-copy view as read-only.
func (f *File) Labels() []int {
	b := f.data[f.yOff : f.yOff+f.rows*8]
	if v, ok := intView(b); ok {
		return v
	}
	out := make([]int, f.rows)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[i*8:])))
	}
	return out
}

// Dataset materializes the file as an owned, mutable Dataset: row-major X
// assembled over one flat backing array from the column sections, labels
// and metadata copied. Bit patterns (NaN payloads, ±Inf, -0) are preserved
// exactly, so the result is byte-identical to the dataset that was written.
func (f *File) Dataset() *dataset.Dataset {
	d := &dataset.Dataset{
		Name:   f.name,
		Domain: f.domain,
		Linear: f.linear,
		X:      make([][]float64, f.rows),
		Y:      make([]int, f.rows),
	}
	copy(d.Y, f.Labels())
	if f.kinds != nil {
		d.Kinds = append([]dataset.FeatureKind(nil), f.kinds...)
	}
	if f.columns != nil {
		d.Columns = append([]string(nil), f.columns...)
	}
	flat := make([]float64, f.rows*f.cols)
	for j := 0; j < f.cols; j++ {
		col := f.Col(j)
		for i, v := range col {
			flat[i*f.cols+j] = v
		}
	}
	for i := range d.X {
		d.X[i] = flat[i*f.cols : (i+1)*f.cols : (i+1)*f.cols]
	}
	return d
}

// Close releases the mapping (if any). Views returned by Col and Labels
// must not be used afterwards.
func (f *File) Close() error {
	if !f.mapped {
		return nil
	}
	f.mapped = false
	err := unmapFile(f.data)
	f.data = nil
	if cerr := f.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Mapped reports whether the file is mmap-backed (true zero-copy views).
func (f *File) Mapped() bool { return f.mapped }

// f64view reinterprets b as []float64 in place when the host is
// little-endian and the bytes are 8-byte aligned.
func f64view(b []byte) ([]float64, bool) {
	if len(b) == 0 {
		return nil, true
	}
	if !hostLittleEndian || uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8), true
}

// intView reinterprets b as []int in place on little-endian hosts where
// int is 64 bits wide and the bytes are aligned.
func intView(b []byte) ([]int, bool) {
	if len(b) == 0 {
		return nil, true
	}
	const intIs64 = unsafe.Sizeof(int(0)) == 8
	if !intIs64 || !hostLittleEndian || uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*int)(unsafe.Pointer(&b[0])), len(b)/8), true
}

func align8(n int) int { return (n + 7) &^ 7 }

func codecErrf(format string, args ...any) error {
	return fmt.Errorf("%w: mlds: %s", codec.ErrCorrupt, fmt.Sprintf(format, args...))
}

// atomicWrite writes b to path via a temp file and rename, so readers never
// observe a torn artifact. Each call writes its own uniquely named temp file
// (ending ".tmp", which no scan mistakes for an artifact), so concurrent
// writers of one path never truncate each other's bytes: each rename
// installs a complete file, and the last one wins.
func atomicWrite(path string, b []byte) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if _, err = f.Write(b); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
