package store

import "os"

// fileSystem is the one seam through which the store changes files: the
// writer's logs, segment rolls and retention, the atomic replacement of
// the manifest and the index, and Recover's truncation. Reads go to os
// directly. Production runs on osFiles; the crash law's recording fake
// (export_test.go) logs every operation so that it can rebuild the
// directory as a crash after any prefix of them leaves it.
type fileSystem interface {
	// mkdirAll makes dir and its parents.
	mkdirAll(dir string) error
	// appendTo opens path for appending, creating it when missing.
	appendTo(path string) (appendFile, error)
	// writeFile replaces path's bytes with data, creating it when
	// missing, and with sync forces them to stable storage. A write that
	// fails after the file was opened removes it.
	writeFile(path string, data []byte, sync bool) error
	truncate(path string, size int64) error
	rename(from, to string) error
	remove(path string) error
	// syncDir forces dir's entries to stable storage.
	syncDir(dir string) error
}

// appendFile is a file opened by fileSystem.appendTo.
type appendFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// osFiles is the fileSystem of the operating system.
type osFiles struct{}

func (osFiles) mkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFiles) appendTo(path string) (appendFile, error) {
	return os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
}

func (osFiles) writeFile(path string, data []byte, sync bool) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

func (osFiles) truncate(path string, size int64) error { return os.Truncate(path, size) }
func (osFiles) rename(from, to string) error           { return os.Rename(from, to) }
func (osFiles) remove(path string) error               { return os.Remove(path) }

func (osFiles) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
