package main

import (
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"iamdb/internal/vfs"
)

// fileClass is the kind of file an I/O went to, told apart by name.
type fileClass int

const (
	classWAL      fileClass = iota // NNNNNN.log
	classTable                     // NNNNNN.mst
	classVlog                      // NNNNNN.vlg
	classManifest                  // MANIFEST*
	classOther                     // anything else (CURRENT-style markers)
	numClasses
)

var classNames = [numClasses]string{"wal", "table", "vlog", "manifest", "other"}

func classify(name string) fileClass {
	base := filepath.Base(name)
	switch {
	case strings.HasSuffix(base, ".log"):
		return classWAL
	case strings.HasSuffix(base, ".mst"):
		return classTable
	case strings.HasSuffix(base, ".vlg"):
		return classVlog
	case strings.HasPrefix(base, "MANIFEST"):
		return classManifest
	}
	return classOther
}

// ioCounts is the traffic of one file class.
type ioCounts struct {
	Writes, WriteBytes, WriteNanos int64
	Reads, ReadBytes, ReadNanos    int64
	Syncs, SyncNanos               int64
}

func (c ioCounts) sub(o ioCounts) ioCounts {
	return ioCounts{
		c.Writes - o.Writes, c.WriteBytes - o.WriteBytes, c.WriteNanos - o.WriteNanos,
		c.Reads - o.Reads, c.ReadBytes - o.ReadBytes, c.ReadNanos - o.ReadNanos,
		c.Syncs - o.Syncs, c.SyncNanos - o.SyncNanos,
	}
}

type classCounters struct {
	writes, writeBytes, writeNanos atomic.Int64
	reads, readBytes, readNanos    atomic.Int64
	syncs, syncNanos               atomic.Int64
}

// timingFS is the benchmark's device boundary: a vfs.FS passed as
// Options.FS that times every write, read and sync and counts bytes,
// split by file class.  The DB wraps it in its own byte counters, so
// the two see exactly the same calls and their byte totals must agree.
type timingFS struct {
	inner vfs.FS
	c     [numClasses]classCounters
}

func newTimingFS(inner vfs.FS) *timingFS { return &timingFS{inner: inner} }

func (t *timingFS) wrap(name string, f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, c: &t.c[classify(name)]}, nil
}

func (t *timingFS) Create(name string) (vfs.File, error) {
	f, err := t.inner.Create(name)
	return t.wrap(name, f, err)
}

func (t *timingFS) Open(name string) (vfs.File, error) {
	f, err := t.inner.Open(name)
	return t.wrap(name, f, err)
}

func (t *timingFS) Remove(name string) error             { return t.inner.Remove(name) }
func (t *timingFS) Rename(oldname, newname string) error { return t.inner.Rename(oldname, newname) }
func (t *timingFS) List(dir string) ([]string, error)    { return t.inner.List(dir) }
func (t *timingFS) MkdirAll(dir string) error            { return t.inner.MkdirAll(dir) }
func (t *timingFS) Exists(name string) bool              { return t.inner.Exists(name) }

// snapshot copies every class's counters.
func (t *timingFS) snapshot() [numClasses]ioCounts {
	var out [numClasses]ioCounts
	for i := range t.c {
		c := &t.c[i]
		out[i] = ioCounts{
			c.writes.Load(), c.writeBytes.Load(), c.writeNanos.Load(),
			c.reads.Load(), c.readBytes.Load(), c.readNanos.Load(),
			c.syncs.Load(), c.syncNanos.Load(),
		}
	}
	return out
}

type timingFile struct {
	vfs.File
	c *classCounters
}

func (f *timingFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.c.readNanos.Add(int64(time.Since(start)))
	f.c.reads.Add(1)
	f.c.readBytes.Add(int64(n))
	return n, err
}

func (f *timingFile) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.noteWrite(start, n)
	return n, err
}

func (f *timingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.noteWrite(start, n)
	return n, err
}

func (f *timingFile) noteWrite(start time.Time, n int) {
	f.c.writeNanos.Add(int64(time.Since(start)))
	f.c.writes.Add(1)
	f.c.writeBytes.Add(int64(n))
}

func (f *timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.c.syncNanos.Add(int64(time.Since(start)))
	f.c.syncs.Add(1)
	return err
}
