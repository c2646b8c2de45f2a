package tracefile

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// WriteJSONAtomic publishes v as indented JSON, newline-terminated, at
// path (WriteFileAtomic). The controller snapshot is written through it.
func WriteJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("tracefile: marshal %s: %w", path, err)
	}
	return WriteFileAtomic(path, append(data, '\n'))
}

// WriteFileAtomic publishes data at path: write to a temp file in the
// same directory, fsync, close, rename over path, then fsync the
// directory so the rename itself is durable. A crash mid-write leaves
// either the old file or the new one, never a torn one. The fleet
// checkpoint is written through it as compact JSON.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("tracefile: temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("tracefile: write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("tracefile: sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("tracefile: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("tracefile: publish %s: %w", path, err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("tracefile: open %s: %w", dir, err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("tracefile: sync %s: %w", dir, err)
	}
	return d.Close()
}
