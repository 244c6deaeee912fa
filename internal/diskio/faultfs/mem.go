package faultfs

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Mem is an in-memory FS that models the two-level durability of a real
// disk: every file has volatile contents (what reads and the page cache
// see) and synced contents (what survives power loss, advanced only by
// File.Sync), and the namespace itself has a volatile and a durable view
// (creates and renames become crash-durable only when SyncDir runs on the
// parent directory — the same contract ext4 gives fsync(2)).
//
// Crash discards everything volatile, leaving exactly the state a machine
// would reboot with. ExportDurable materializes the durable view into a
// real directory so recovery code that only speaks the real filesystem
// (mmap opens, manifest readers) can run against post-crash state.
type Mem struct {
	mu sync.Mutex
	// files is the volatile namespace: what the running process sees.
	files map[string]*memFile
	// durable is the crash-durable namespace: path -> file object whose
	// synced contents survive a crash.
	durable map[string]*memFile
	tmpSeq  int
}

type memFile struct {
	data   []byte // volatile contents
	synced []byte // contents as of the last File.Sync
}

// NewMem returns an empty in-memory filesystem.
func NewMem() *Mem {
	return &Mem{files: make(map[string]*memFile), durable: make(map[string]*memFile)}
}

func memPath(name string) string { return filepath.Clean(name) }

func notExist(op, name string) error {
	return &os.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

// OpenFile implements FS. Directories are implicit: any path can be
// created without MkdirAll.
func (m *Mem) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = memPath(name)
	f, ok := m.files[name]
	switch {
	case !ok && flag&os.O_CREATE == 0:
		return nil, notExist("open", name)
	case ok && flag&os.O_EXCL != 0:
		return nil, &os.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	case !ok:
		f = &memFile{}
		m.files[name] = f
	case flag&os.O_TRUNC != 0:
		f.data = nil
	}
	return &memHandle{fs: m, f: f, name: name, appendMode: flag&os.O_APPEND != 0}, nil
}

// CreateTemp implements FS with deterministic names (tmp sequence number
// substituted for the pattern's '*').
func (m *Mem) CreateTemp(dir, pattern string) (File, error) {
	m.mu.Lock()
	m.tmpSeq++
	seq := m.tmpSeq
	m.mu.Unlock()
	name := filepath.Join(dir, fmt.Sprintf("%s%d", pattern, seq))
	for i := len(pattern) - 1; i >= 0; i-- {
		if pattern[i] == '*' {
			name = filepath.Join(dir, pattern[:i]+fmt.Sprint(seq)+pattern[i+1:])
			break
		}
	}
	return m.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o600)
}

// Rename implements FS: atomic in the volatile namespace, durable only
// after SyncDir on the parent directory.
func (m *Mem) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldpath, newpath = memPath(oldpath), memPath(newpath)
	f, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	m.files[newpath] = f
	delete(m.files, oldpath)
	return nil
}

// Remove implements FS (volatile until SyncDir).
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = memPath(name)
	if _, ok := m.files[name]; !ok {
		return notExist("remove", name)
	}
	delete(m.files, name)
	return nil
}

// MkdirAll implements FS. Directories are implicit in Mem, so this only
// validates nothing: it always succeeds.
func (m *Mem) MkdirAll(path string, perm os.FileMode) error { return nil }

// ReadFile implements FS, returning the volatile contents.
func (m *Mem) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = memPath(name)
	f, ok := m.files[name]
	if !ok {
		return nil, notExist("open", name)
	}
	return append([]byte(nil), f.data...), nil
}

// ReadDir implements FS over the volatile namespace.
func (m *Mem) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = memPath(dir)
	var names []string
	for p := range m.files {
		if filepath.Dir(p) == dir {
			names = append(names, filepath.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir implements FS: it makes dir's current entries (creations,
// renames, removals) crash-durable, exactly like fsync on a real
// directory fd.
func (m *Mem) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = memPath(dir)
	for p, f := range m.files {
		if filepath.Dir(p) == dir {
			m.durable[p] = f
		}
	}
	for p := range m.durable {
		if filepath.Dir(p) == dir {
			if _, ok := m.files[p]; !ok {
				delete(m.durable, p)
			}
		}
	}
	return nil
}

// Crash simulates power loss: the volatile namespace and all unsynced
// contents are discarded. What remains is each durably-linked file with
// its last fsynced contents.
func (m *Mem) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files = make(map[string]*memFile)
	for p, f := range m.durable {
		nf := &memFile{data: append([]byte(nil), f.synced...)}
		nf.synced = nf.data
		m.files[p] = nf
		m.durable[p] = nf
	}
}

// ExportDurable writes the durable (crash-surviving) view into root on
// the real filesystem, so recovery paths that read through the os package
// can be pointed at post-crash state.
func (m *Mem) ExportDurable(root string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p, f := range m.durable {
		dst := filepath.Join(root, p)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(dst, f.synced, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// memHandle is an open handle onto a memFile. Non-append handles write
// from their own offset (starting at 0, as fresh O_TRUNC/O_CREATE opens
// do); append handles always write at the current end.
type memHandle struct {
	fs         *Mem
	f          *memFile
	name       string
	appendMode bool
	off        int
	closed     bool
}

// Write implements File.
func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, &os.PathError{Op: "write", Path: h.name, Err: fs.ErrClosed}
	}
	if h.appendMode {
		h.off = len(h.f.data)
	}
	need := h.off + len(p)
	if need > len(h.f.data) {
		h.f.data = append(h.f.data, make([]byte, need-len(h.f.data))...)
	}
	copy(h.f.data[h.off:], p)
	h.off = need
	return len(p), nil
}

// Sync implements File: volatile contents become crash-durable.
func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.f.synced = append([]byte(nil), h.f.data...)
	return nil
}

// SyncPartial makes only half of the not-yet-durable byte suffix durable,
// modeling a crash in the middle of an fsync's writeback. The fault layer
// calls it for crash-at-sync points to produce torn tails deterministically.
func (h *memHandle) SyncPartial() {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if len(h.f.data) <= len(h.f.synced) {
		return
	}
	keep := len(h.f.synced) + (len(h.f.data)-len(h.f.synced))/2
	h.f.synced = append([]byte(nil), h.f.data[:keep]...)
}

// Truncate implements File.
func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if size < 0 {
		return &os.PathError{Op: "truncate", Path: h.name, Err: fs.ErrInvalid}
	}
	for int64(len(h.f.data)) < size {
		h.f.data = append(h.f.data, 0)
	}
	h.f.data = h.f.data[:size]
	if h.off > int(size) {
		h.off = int(size)
	}
	return nil
}

// Chmod implements File (modes are not modeled).
func (h *memHandle) Chmod(mode os.FileMode) error { return nil }

// Name implements File.
func (h *memHandle) Name() string { return h.name }

// Close implements File.
func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}
