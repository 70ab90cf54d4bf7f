// Package store keeps values by key for the caches that let runs skip work
// already done: finished simulation results (internal/sweep) and warm-up
// checkpoints (internal/ckpt). It is the one place their on-disk format is
// defined.
//
// A Disk entry is the file <key>.json holding the hex SHA-256 of the JSON
// body, a newline, then the body. Get checks the digest on every read, so an
// entry edited, truncated or written in an older format is a miss, and the
// caller rebuilds what it describes; it is never served and never fails the
// run. A store is an optimisation: a directory may be deleted at any time.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Store holds values by key. Implementations are safe for concurrent use.
// Get misses on any problem, and Put never fails its caller.
type Store[T any] interface {
	// Get returns the value stored under key, if present and intact.
	Get(key string) (*T, bool)
	// Put stores v under key.
	Put(key string, v *T)
}

// Mem is an in-process Store. Values are shared, not copied.
type Mem[T any] struct {
	mu sync.RWMutex
	m  map[string]*T
}

// NewMem returns an empty in-memory store.
func NewMem[T any]() *Mem[T] { return &Mem[T]{m: make(map[string]*T)} }

// Get implements Store.
func (s *Mem[T]) Get(key string) (*T, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[key]
	return v, ok
}

// Put implements Store.
func (s *Mem[T]) Put(key string, v *T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = v
}

// Len returns the number of stored values.
func (s *Mem[T]) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Disk persists values as one digest-checked JSON file per key, so the
// work they record amortises across processes.
type Disk[T any] struct {
	dir   string
	valid func(key string, v *T) bool
}

// staleTempAge is how old an orphaned Put temp file must be before
// NewDisk removes it. Writes finish in well under a minute, so anything
// this old is the residue of a killed process, not a concurrent Put.
const staleTempAge = time.Hour

// NewDisk opens (creating if needed) a disk store rooted at dir. valid,
// when non-nil, vets each decoded value: an entry it rejects (a stale
// schema, a value filed under the wrong key) is a miss. Temp files left by
// writers that died mid-Put are removed.
func NewDisk[T any](dir string, valid func(key string, v *T) bool) (*Disk[T], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	cutoff := time.Now().Add(-staleTempAge)
	for _, de := range des {
		if !strings.Contains(de.Name(), ".tmp-") {
			continue
		}
		if info, err := de.Info(); err == nil && info.ModTime().Before(cutoff) {
			os.Remove(filepath.Join(dir, de.Name()))
		}
	}
	return &Disk[T]{dir: dir, valid: valid}, nil
}

func (s *Disk[T]) path(key string) string { return filepath.Join(s.dir, key+".json") }

// Get implements Store.
func (s *Disk[T]) Get(key string) (*T, bool) {
	b, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	return s.decode(key, b)
}

// decode checks an entry's digest line against its body and parses the
// body; any failure is a miss.
func (s *Disk[T]) decode(key string, b []byte) (*T, bool) {
	digest, body, ok := bytes.Cut(b, []byte{'\n'})
	if !ok {
		return nil, false
	}
	sum := sha256.Sum256(body)
	if string(digest) != hex.EncodeToString(sum[:]) {
		return nil, false
	}
	v := new(T)
	if err := json.Unmarshal(body, v); err != nil {
		return nil, false
	}
	if s.valid != nil && !s.valid(key, v) {
		return nil, false
	}
	return v, true
}

// Put implements Store. The entry is written to a temp file and renamed
// into place, so a concurrent reader never sees a partial entry. It is not
// synced: an entry torn by a crash fails its digest and reads as a miss.
func (s *Disk[T]) Put(key string, v *T) {
	body, err := json.Marshal(v)
	if err != nil {
		return
	}
	sum := sha256.Sum256(body)
	tmp, err := os.CreateTemp(s.dir, key+".tmp-*")
	if err != nil {
		return
	}
	_, werr := fmt.Fprintf(tmp, "%x\n%s", sum, body)
	cerr := tmp.Close()
	if werr != nil || cerr != nil || os.Rename(tmp.Name(), s.path(key)) != nil {
		os.Remove(tmp.Name())
	}
}
