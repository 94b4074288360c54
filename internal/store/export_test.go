package store

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// manualTime is a time source the retention tests move by hand.
type manualTime struct{ t time.Time }

func (m *manualTime) now() time.Time { return m.t }

// Advance moves the time forward by d.
func (m *manualTime) Advance(d time.Duration) { m.t = m.t.Add(d) }

// createAt is CreateWith with the writer's segment birth times read from
// clock instead of the wall clock.
func createAt(dir string, man Manifest, opts Options, clock *manualTime) (*Writer, error) {
	w, err := CreateWith(dir, man, opts)
	if err == nil {
		w.now = clock.now
	}
	return w, err
}

// crashFiles is the crash law's fileSystem: it changes the directory
// under root through osFiles and logs every operation that succeeded,
// in order, so that image can rebuild what a crash after any prefix of
// the log leaves on disk. It models durability from the log, so it asks
// the OS for no sync. fail, when set, is asked first and fails the
// operation it returns an error for, before anything is changed — how
// the tests inject a write failure.
type crashFiles struct {
	root string
	fail func(fileOp) error

	mu  sync.Mutex
	ops []fileOp
}

// fileOp is one logged operation; paths are relative to the root.
type fileOp struct {
	kind opKind
	path string
	to   string // a rename's new path
	data []byte // an append's or whole-file write's bytes
	size int64  // a truncation's length
	sync bool   // a whole-file write's
}

type opKind string

const (
	opMkdir    opKind = "mkdir"
	opCreate   opKind = "create"
	opAppend   opKind = "append"
	opSync     opKind = "sync"
	opWrite    opKind = "write"
	opTruncate opKind = "truncate"
	opRename   opKind = "rename"
	opRemove   opKind = "remove"
	opSyncDir  opKind = "syncdir"
)

func (op fileOp) String() string {
	switch op.kind {
	case opAppend, opWrite:
		return fmt.Sprintf("%s %s (%d bytes)", op.kind, op.path, len(op.data))
	case opRename:
		return fmt.Sprintf("rename %s %s", op.path, op.to)
	case opTruncate:
		return fmt.Sprintf("truncate %s %d", op.path, op.size)
	}
	return fmt.Sprintf("%s %s", op.kind, op.path)
}

// log runs apply unless fail refuses op, and logs op when apply succeeds.
func (c *crashFiles) log(op fileOp, apply func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail != nil {
		if err := c.fail(op); err != nil {
			return err
		}
	}
	if err := apply(); err != nil {
		return err
	}
	op.data = bytes.Clone(op.data) // the caller reuses its buffer
	c.ops = append(c.ops, op)
	return nil
}

// rel is path relative to the root.
func (c *crashFiles) rel(path string) string {
	r, err := filepath.Rel(c.root, path)
	if err != nil {
		panic(err)
	}
	return r
}

// Ops returns a copy of the log so far.
func (c *crashFiles) Ops() []fileOp {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.ops)
}

func (c *crashFiles) mkdirAll(dir string) error {
	return c.log(fileOp{kind: opMkdir, path: c.rel(dir)}, func() error { return osFiles{}.mkdirAll(dir) })
}

func (c *crashFiles) appendTo(path string) (appendFile, error) {
	var f appendFile
	err := c.log(fileOp{kind: opCreate, path: c.rel(path)}, func() (err error) {
		f, err = osFiles{}.appendTo(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &crashFile{c: c, path: c.rel(path), f: f}, nil
}

func (c *crashFiles) writeFile(path string, data []byte, sync bool) error {
	return c.log(fileOp{kind: opWrite, path: c.rel(path), data: data, sync: sync}, func() error {
		return osFiles{}.writeFile(path, data, false)
	})
}

func (c *crashFiles) truncate(path string, size int64) error {
	return c.log(fileOp{kind: opTruncate, path: c.rel(path), size: size}, func() error {
		return osFiles{}.truncate(path, size)
	})
}

func (c *crashFiles) rename(from, to string) error {
	return c.log(fileOp{kind: opRename, path: c.rel(from), to: c.rel(to)}, func() error {
		return osFiles{}.rename(from, to)
	})
}

func (c *crashFiles) remove(path string) error {
	return c.log(fileOp{kind: opRemove, path: c.rel(path)}, func() error { return osFiles{}.remove(path) })
}

func (c *crashFiles) syncDir(dir string) error {
	return c.log(fileOp{kind: opSyncDir, path: c.rel(dir)}, func() error { return nil })
}

// crashFile is a file crashFiles opened for appending.
type crashFile struct {
	c    *crashFiles
	path string
	f    appendFile
}

func (f *crashFile) Write(p []byte) (n int, err error) {
	err = f.c.log(fileOp{kind: opAppend, path: f.path, data: p}, func() error {
		n, err = f.f.Write(p)
		return err
	})
	return n, err
}

func (f *crashFile) Sync() error {
	return f.c.log(fileOp{kind: opSync, path: f.path}, func() error { return nil })
}

func (f *crashFile) Close() error { return f.f.Close() }

// dirImage is a directory tree as a crash leaves it: its directories and
// each file's bytes, relative to the root.
type dirImage struct {
	dirs  map[string]bool
	files map[string]*fileImage
}

// fileImage is one file of a dirImage: its bytes, and how many of them a
// sync forced to stable storage.
type fileImage struct {
	data   []byte
	synced int
}

// crash says which of the logged operations before a crash point reached
// the disk.
type crash struct {
	// torn, when >= 0, cuts the last operation before the crash point, an
	// append or a whole-file write, to its first torn bytes: the write
	// the crash interrupted.
	torn int
	// power cuts every file back to what a sync forced to stable storage
	// and, unless keepDirOps, undoes every rename and removal that no sync
	// of its directory followed. Files themselves are kept: a synced
	// file's name is durable.
	power, keepDirOps bool
	// cut, when set (a power loss), picks each file's surviving length
	// between its synced length and its written one instead.
	cut func(synced, written int) int
}

// image rebuilds base after ops[:k] under the crash c. base, the
// directory before the first operation, is taken as durable.
func image(base dirImage, ops []fileOp, k int, c crash) dirImage {
	img := dirImage{dirs: maps.Clone(base.dirs), files: map[string]*fileImage{}}
	if img.dirs == nil {
		img.dirs = map[string]bool{}
	}
	for p, f := range base.files {
		img.files[p] = &fileImage{data: bytes.Clone(f.data), synced: len(f.data)}
	}
	for i, op := range ops[:k] {
		data := op.data
		if i == k-1 && c.torn >= 0 {
			data = data[:c.torn]
		}
		f := img.files[op.path]
		switch op.kind {
		case opMkdir:
			for d := op.path; d != "." && d != string(filepath.Separator); d = filepath.Dir(d) {
				img.dirs[d] = true
			}
		case opCreate:
			if f == nil {
				img.files[op.path] = &fileImage{}
			}
		case opAppend:
			f.data = append(f.data, data...)
		case opSync:
			f.synced = len(f.data)
		case opWrite:
			f = &fileImage{data: bytes.Clone(data)}
			if op.sync && len(data) == len(op.data) {
				f.synced = len(data)
			}
			img.files[op.path] = f
		case opTruncate:
			f.data = f.data[:op.size]
			f.synced = min(f.synced, int(op.size))
		case opRename, opRemove:
			if c.power && !c.keepDirOps && !dirSynced(ops[i+1:k], op.path) {
				continue
			}
			delete(img.files, op.path)
			if op.kind == opRename {
				img.files[op.to] = f
			}
		}
	}
	if c.power {
		paths := make([]string, 0, len(img.files))
		for p := range img.files {
			paths = append(paths, p)
		}
		slices.Sort(paths)
		for _, p := range paths {
			f := img.files[p]
			n := f.synced
			if c.cut != nil {
				n = c.cut(f.synced, len(f.data))
			}
			f.data = f.data[:n]
			f.synced = n
		}
	}
	return img
}

// dirSynced reports whether ops sync the directory holding path.
func dirSynced(ops []fileOp, path string) bool {
	for _, op := range ops {
		if op.kind == opSyncDir && op.path == filepath.Dir(path) {
			return true
		}
	}
	return false
}

// write lays the image out under root, which must not exist yet.
func (img dirImage) write(root string) error {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	for d := range img.dirs {
		if err := os.MkdirAll(filepath.Join(root, d), 0o755); err != nil {
			return err
		}
	}
	for p, f := range img.files {
		path := filepath.Join(root, p)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, f.data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
