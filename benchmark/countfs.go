package main

import "rbq/internal/store"

// countFS wraps a store.FS and counts what the store layer asks of the
// device: bytes written and durability barriers (file and directory
// fsyncs). With one writer the counts repeat exactly.
type countFS struct {
	store.FS
	bytes, syncs int64
}

func (c *countFS) Create(name string) (store.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) OpenAppend(name string) (store.File, error) {
	f, err := c.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) SyncDir(dir string) error {
	c.syncs++
	return c.FS.SyncDir(dir)
}

type countFile struct {
	store.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes += int64(n)
	return n, err
}

func (f *countFile) Sync() error {
	f.fs.syncs++
	return f.File.Sync()
}
