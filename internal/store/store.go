package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mlaasbench/internal/platforms"
)

// Store is a directory of MLMF model artifacts, one file per cache key.
// Filenames are the hex SHA-256 of the key (keys contain '/' and '|'),
// with the key itself recorded inside the artifact. Writes are atomic
// (temp + rename) and artifacts for a given key are deterministic, so
// concurrent writers of the same key converge on identical bytes and
// readers never observe a torn file.
type Store struct {
	dir string
}

const modelExt = ".mlmf"

// Open opens (creating if needed) a model store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// ModelPath returns the artifact path for a cache key.
func (s *Store) ModelPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+modelExt)
}

// Has reports whether an artifact exists for the key (without decoding it).
func (s *Store) Has(key string) bool {
	_, err := os.Stat(s.ModelPath(key))
	return err == nil
}

// PutModel persists a fitted model under its cache key. If an artifact for
// the key already exists it is left untouched: fits are deterministic per
// key, so the bytes on disk are already identical to what would be written.
func (s *Store) PutModel(key string, m platforms.FittedModel) error {
	path := s.ModelPath(key)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	bp := getModelBuf(0)
	defer putModelBuf(bp)
	b, err := appendModel(*bp, key, m)
	if err != nil {
		return fmt.Errorf("store: encode %q: %w", key, err)
	}
	*bp = b
	if err := atomicWrite(path, b); err != nil {
		return fmt.Errorf("store: write %q: %w", key, err)
	}
	return nil
}

// readModel reads and decodes the MLMF artifact at path through a pooled
// buffer, which is released before returning: DecodeModel copies all it
// keeps.
func readModel(path string) (key string, m platforms.FittedModel, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return "", nil, err
	}
	if size := st.Size(); size > maxModelBytes {
		return "", nil, modelErrf("artifact %d bytes exceeds limit %d", size, maxModelBytes)
	}
	bp := getModelBuf(int(st.Size()))
	defer putModelBuf(bp)
	if _, err := io.ReadFull(f, *bp); err != nil {
		return "", nil, err
	}
	return DecodeModel(*bp)
}

// GetModel loads the artifact for a cache key. ok=false with a nil error
// means no artifact exists; a non-nil error means one exists but is
// unreadable or corrupt.
func (s *Store) GetModel(key string) (m platforms.FittedModel, ok bool, err error) {
	storedKey, m, err := readModel(s.ModelPath(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: load %q: %w", key, err)
	}
	if storedKey != key {
		return nil, false, fmt.Errorf("store: artifact for %q holds key %q", key, storedKey)
	}
	return m, true, nil
}

// Models iterates every artifact in the store in a stable (filename) order,
// decoding each and invoking fn with its key, model, and how long the read
// plus decode took. An artifact that cannot be read or decoded (corrupt, or
// written under another MLMF version) is skipped and reported in skipped;
// fn returning an error stops the iteration.
func (s *Store) Models(fn func(key string, m platforms.FittedModel, load time.Duration) error) (skipped []error, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), modelExt) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		start := time.Now()
		key, m, err := readModel(filepath.Join(s.dir, name))
		if err != nil {
			skipped = append(skipped, fmt.Errorf("store: load %s: %w", name, err))
			continue
		}
		if err := fn(key, m, time.Since(start)); err != nil {
			return skipped, err
		}
	}
	return skipped, nil
}

// Len counts the artifacts currently in the store.
func (s *Store) Len() (int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), modelExt) {
			n++
		}
	}
	return n, nil
}
