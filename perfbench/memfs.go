package main

import (
	"io/fs"
	"path"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// memFS is an in-memory fsx.FS: the publish target of the author
// workload. It stands in for tmpfs — the benchmark may write only
// inside its checkout, and per-file work on the shared disk swings
// publish times by 2x between runs, drowning every other signal. The
// publication code runs unchanged against it: staging, hard links,
// the two-rename swap and the .prev rollback copy.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte // clean path → contents (shared by links)
	dirs  map[string]bool
}

func newMemFS() *memFS {
	return &memFS{files: map[string][]byte{}, dirs: map[string]bool{}}
}

func (m *memFS) MkdirAll(p string, _ fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p = filepath.Clean(p); p != "." && p != "/"; p = filepath.Dir(p) {
		m.dirs[p] = true
	}
	return nil
}

func (m *memFS) WriteFile(name string, data []byte, _ fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if !m.dirs[filepath.Dir(name)] {
		return &fs.PathError{Op: "write", Path: name, Err: fs.ErrNotExist}
	}
	m.files[name] = append([]byte(nil), data...)
	return nil
}

// under reports whether p is root or below it.
func under(p, root string) bool {
	return p == root || strings.HasPrefix(p, root+"/")
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	if _, ok := m.files[oldpath]; !ok && !m.dirs[oldpath] {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	files, dirs := map[string][]byte{}, map[string]bool{}
	for p, b := range m.files {
		if under(p, oldpath) {
			files[newpath+p[len(oldpath):]] = b
			delete(m.files, p)
		}
	}
	for p := range m.dirs {
		if under(p, oldpath) {
			dirs[newpath+p[len(oldpath):]] = true
			delete(m.dirs, p)
		}
	}
	for p, b := range files {
		m.files[p] = b
	}
	for p := range dirs {
		m.dirs[p] = true
	}
	return nil
}

func (m *memFS) Link(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[filepath.Clean(oldname)]
	if !ok {
		return &fs.PathError{Op: "link", Path: oldname, Err: fs.ErrNotExist}
	}
	m.files[filepath.Clean(newname)] = b
	return nil
}

func (m *memFS) RemoveAll(p string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p = filepath.Clean(p)
	for f := range m.files {
		if under(f, p) {
			delete(m.files, f)
		}
	}
	for d := range m.dirs {
		if under(d, p) {
			delete(m.dirs, d)
		}
	}
	return nil
}

func (m *memFS) SyncDir(string) error { return nil }

func (m *memFS) Stat(p string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p = filepath.Clean(p)
	if b, ok := m.files[p]; ok {
		return memInfo{name: path.Base(p), size: int64(len(b))}, nil
	}
	if m.dirs[p] {
		return memInfo{name: path.Base(p), dir: true}, nil
	}
	return nil, &fs.PathError{Op: "stat", Path: p, Err: fs.ErrNotExist}
}

// tree returns every file under dir keyed by slash-separated relative
// path.
func (m *memFS) tree(dir string) map[string]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	out := map[string]string{}
	for p, b := range m.files {
		if strings.HasPrefix(p, dir+"/") {
			out[filepath.ToSlash(p[len(dir)+1:])] = string(b)
		}
	}
	return out
}

type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string { return i.name }
func (i memInfo) Size() int64  { return i.size }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }
