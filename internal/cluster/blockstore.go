// Package cluster implements Fusion's storage-node substrate: the per-node
// block store, the node service that executes block operations and pushdown
// computations, and the Client interface coordinators use to reach nodes
// over any transport.
package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound reports a missing block.
var ErrNotFound = errors.New("cluster: block not found")

// BlockStore is a node's local block storage.
type BlockStore interface {
	// Put stores data under id, replacing any previous contents. It must not
	// retain data past its return (copy it, or write it through): over
	// tcpnet, data aliases a pooled frame buffer that is recycled as soon as
	// the response is sent.
	Put(id string, data []byte) error
	// Get reads length bytes at offset; length 0 means to the end. The
	// returned bytes are read-only to the caller, for as long as it likes: a
	// store may return a view of memory it keeps (MemStore does), and a
	// handler sends it to the socket, or hands it to a reader over simnet,
	// without a copy. A caller that wants to change them clones first.
	Get(id string, offset, length uint64) ([]byte, error)
	// Size returns a block's byte size.
	Size(id string) (uint64, error)
	// Delete removes a block. Deleting a missing block is not an error.
	Delete(id string) error
	// IDs returns all block ids in sorted order.
	IDs() []string
}

// MemStore is an in-memory BlockStore, used by the simulated cluster, the
// repository benchmark and tests.
//
// A stored block is immutable: Put installs a fresh copy of its argument,
// Delete only drops the map entry, and nothing writes a stored slice in
// place. That is what lets Get return a view of the stored slice instead of
// a copy — a view taken before an overwrite or a delete keeps reading the
// bytes it was taken over, which the collector frees once the last view is
// gone.
type MemStore struct {
	mu     sync.RWMutex
	blocks map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blocks: make(map[string][]byte)}
}

// Put implements BlockStore.
func (s *MemStore) Put(id string, data []byte) error {
	// Copy outside the lock: concurrent writers reach one node at the same
	// moment, and only the map swap needs to exclude them.
	b := append([]byte(nil), data...)
	s.mu.Lock()
	s.blocks[id] = b
	s.mu.Unlock()
	return nil
}

// Get implements BlockStore. The result is a view of the stored block (see
// the type's comment), its capacity clipped so that an append cannot reach
// the bytes behind it.
func (s *MemStore) Get(id string, offset, length uint64) ([]byte, error) {
	s.mu.RLock()
	b, ok := s.blocks[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return sliceRange(b, offset, length)
}

// Size implements BlockStore.
func (s *MemStore) Size(id string) (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.blocks[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return uint64(len(b)), nil
}

// Delete implements BlockStore.
func (s *MemStore) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.blocks, id)
	return nil
}

// IDs implements BlockStore.
func (s *MemStore) IDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]string, 0, len(s.blocks))
	for id := range s.blocks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// TotalBytes returns the sum of all block sizes (storage-overhead audits).
func (s *MemStore) TotalBytes() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total uint64
	for _, b := range s.blocks {
		total += uint64(len(b))
	}
	return total
}

// rangeEnd bounds-checks a read of length bytes at offset (length 0 means to
// the end) against a block of size bytes and returns where it ends. The
// comparison is overflow-safe: offset+length may wrap uint64.
func rangeEnd(size, offset, length uint64) (uint64, error) {
	if offset > size {
		return 0, fmt.Errorf("cluster: offset %d beyond block of %d bytes", offset, size)
	}
	if length == 0 {
		return size, nil
	}
	if length > size-offset {
		return 0, fmt.Errorf("cluster: range [%d,+%d) beyond block of %d bytes", offset, length, size)
	}
	return offset + length, nil
}

// sliceRange is the bounds-checked view b[offset:offset+length] (length 0
// means to the end) — a reslice, never a copy — with its capacity clipped so
// that an append by the holder cannot reach the bytes behind it.
func sliceRange(b []byte, offset, length uint64) ([]byte, error) {
	end, err := rangeEnd(uint64(len(b)), offset, length)
	if err != nil {
		return nil, err
	}
	return b[offset:end:end], nil
}

// DiskStore is a BlockStore persisting each block as a file under a
// directory — the layout the fusion-server binary uses.
type DiskStore struct {
	dir string
	mu  sync.RWMutex
}

// NewDiskStore creates (if needed) and opens a directory-backed store.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// path maps a block id to a file path, escaping separators.
func (s *DiskStore) path(id string) string {
	enc := strings.NewReplacer("/", "_S_", "\\", "_B_", "..", "_D_").Replace(id)
	return filepath.Join(s.dir, enc+".blk")
}

// Put implements BlockStore.
func (s *DiskStore) Put(id string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp := s.path(id) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.path(id))
}

// Get implements BlockStore.
func (s *DiskStore) Get(id string, offset, length uint64) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, err := os.Open(s.path(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	end, err := rangeEnd(uint64(st.Size()), offset, length)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, end-offset)
	if _, err := f.ReadAt(buf, int64(offset)); err != nil {
		return nil, err
	}
	return buf, nil
}

// Size implements BlockStore.
func (s *DiskStore) Size(id string) (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, err := os.Stat(s.path(id))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return 0, err
	}
	return uint64(st.Size()), nil
}

// Delete implements BlockStore.
func (s *DiskStore) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := os.Remove(s.path(id))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// IDs implements BlockStore.
func (s *DiskStore) IDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	dec := strings.NewReplacer("_S_", "/", "_B_", "\\", "_D_", "..")
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".blk") {
			ids = append(ids, dec.Replace(strings.TrimSuffix(name, ".blk")))
		}
	}
	sort.Strings(ids)
	return ids
}
