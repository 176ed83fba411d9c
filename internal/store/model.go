package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"mlaasbench/internal/codec"
	"mlaasbench/internal/platforms"
)

// MLMF fitted-model artifact layout (little-endian):
//
//	offset  0: magic "MLMF"
//	offset  4: u16 version (currently 2)
//	offset  6: u16 flags (reserved, 0)
//	offset  8: u64 payloadLen
//	offset 16: payload — codec: cache key string, then the
//	           platforms.AppendFittedModel encoding
//	end     : u32 CRC32-C over bytes [0, size-4)
//
// Artifacts are small (coefficients, trees, kNN backing), so the whole file
// is read, CRC-verified, then decoded — no partial reads to tear. The
// decoded model owns every byte it holds (the codec readers copy), so the
// file is read into a pooled buffer that is reused by the next read.
//
// Version 2 marks keys that embed a content-addressed dataset id. Version 1
// keys embedded a per-process counter ("ds-1"), which names a different
// dataset in every process, so v1 artifacts are never decoded.
const (
	mlmfMagic      = "MLMF"
	mlmfVersion    = 2
	mlmfHeaderSize = 16

	// maxModelBytes caps how much of a claimed artifact the decoder will
	// consider; the largest real artifact (kNN on the full corpus) is well
	// under a hundredth of this.
	maxModelBytes = 1 << 30
	maxKeyLen     = 1 << 10

	// maxPooledBytes caps the buffers kept in modelBufs, so one outsized
	// artifact cannot stay pinned in the pool after its read or write.
	maxPooledBytes = 4 << 20
)

// modelBufs recycles the byte buffers MLMF artifacts are read into and
// encoded into. Only MLMF uses it: a decoded model never aliases its
// artifact, whereas MLDS files back zero-copy views and are never pooled.
var modelBufs = sync.Pool{New: func() any { return new([]byte) }}

// getModelBuf returns a pooled buffer of length n.
func getModelBuf(n int) *[]byte {
	bp := modelBufs.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// putModelBuf returns a buffer to the pool unless it has grown past
// maxPooledBytes.
func putModelBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBytes {
		modelBufs.Put(bp)
	}
}

// EncodeModel serializes a fitted model under its cache key.
func EncodeModel(key string, m platforms.FittedModel) ([]byte, error) {
	return appendModel(nil, key, m)
}

// appendModel appends the MLMF artifact for key and m to dst: the header
// is reserved first and its payload length patched in once the key and
// model are appended, so the payload is written once, in place.
func appendModel(dst []byte, key string, m platforms.FittedModel) ([]byte, error) {
	start := len(dst)
	dst = append(dst, mlmfMagic...)
	dst = binary.LittleEndian.AppendUint16(dst, mlmfVersion)
	dst = append(dst, make([]byte, mlmfHeaderSize-6)...) // flags, payloadLen
	dst = codec.AppendString(dst, key)
	dst, err := platforms.AppendFittedModel(dst, m)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint64(dst[start+8:], uint64(len(dst)-start-mlmfHeaderSize))
	return codec.AppendU32(dst, crc32.Checksum(dst[start:], castagnoli)), nil
}

// DecodeModel reconstructs the cache key and fitted model from an MLMF
// artifact. Corrupt or truncated input errors; it never panics and never
// allocates beyond what the delivered bytes justify.
func DecodeModel(data []byte) (string, platforms.FittedModel, error) {
	size := len(data)
	if size > maxModelBytes {
		return "", nil, modelErrf("artifact %d bytes exceeds limit %d", size, maxModelBytes)
	}
	if size < mlmfHeaderSize+4 {
		return "", nil, modelErrf("artifact %d bytes, need at least %d", size, mlmfHeaderSize+4)
	}
	if string(data[:4]) != mlmfMagic {
		return "", nil, modelErrf("bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != mlmfVersion {
		return "", nil, modelErrf("version %d, want %d", v, mlmfVersion)
	}
	if plen := binary.LittleEndian.Uint64(data[8:]); plen != uint64(size-mlmfHeaderSize-4) {
		return "", nil, modelErrf("payload length %d, file carries %d", plen, size-mlmfHeaderSize-4)
	}
	want := binary.LittleEndian.Uint32(data[size-4:])
	if got := crc32.Checksum(data[:size-4], castagnoli); got != want {
		return "", nil, modelErrf("CRC mismatch: file says %08x, payload is %08x", want, got)
	}
	r := codec.NewReader(data[mlmfHeaderSize : size-4])
	key := r.String(maxKeyLen)
	m, err := platforms.DecodeFittedModel(r)
	if err != nil {
		return "", nil, err
	}
	if r.Remaining() != 0 {
		return "", nil, modelErrf("%d trailing bytes after model", r.Remaining())
	}
	return key, m, nil
}

func modelErrf(format string, args ...any) error {
	return fmt.Errorf("%w: mlmf: %s", codec.ErrCorrupt, fmt.Sprintf(format, args...))
}
