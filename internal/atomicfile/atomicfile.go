// Package atomicfile writes files crash-safely: data lands in a
// temporary sibling, is fsynced, and is renamed over the destination,
// so readers observe either the old contents or the new — never a torn
// half-write. The objstore persistence path and plane.Loop checkpoints
// both route through it; a process killed mid-write leaves only a *.tmp
// sibling that CleanTemps sweeps on the next open.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// TempSuffix marks in-flight writes; leftovers are torn writes from a
// crash and are never valid data.
const TempSuffix = ".tmp"

// WriteFile atomically replaces path with data: write to path+".tmp",
// fsync, rename. On any error the temporary is removed and the prior
// contents of path are untouched.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	tmp := path + TempSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("atomicfile: write: %w", err)
	}
	// fsync before rename: without it the rename can be durable while the
	// data is not, which is exactly the torn write this package exists to
	// prevent.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("atomicfile: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("atomicfile: close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("atomicfile: rename: %w", err)
	}
	return nil
}

// CleanTemps removes leftover *.tmp files under dir (non-recursive) —
// the recovery sweep for writes torn by a crash. It returns how many
// leftovers were removed.
func CleanTemps(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("atomicfile: clean: %w", err)
	}
	removed := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), TempSuffix) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return removed, fmt.Errorf("atomicfile: clean: %w", err)
		}
		removed++
	}
	return removed, nil
}
