package store_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/sweep"
)

// TestDiskStoreSweepsStaleTemps pins the crash-residue cleanup in both
// directories a sweep keeps: opening a checkpoint store or a result cache
// removes temp files old enough that their writer must be dead, and leaves
// fresh ones (a concurrent writer's in-flight Put) alone.
func TestDiskStoreSweepsStaleTemps(t *testing.T) {
	for _, c := range []struct {
		name string
		open func(dir string) error
	}{
		{"checkpoints", func(dir string) error { _, err := ckpt.NewDiskStore(dir); return err }},
		{"results", func(dir string) error { _, err := sweep.NewDiskCache(dir); return err }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			stale := filepath.Join(dir, "deadbeef.tmp-123")
			fresh := filepath.Join(dir, "cafef00d.tmp-456")
			for _, p := range []string{stale, fresh} {
				if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			old := time.Now().Add(-2 * time.Hour)
			if err := os.Chtimes(stale, old, old); err != nil {
				t.Fatal(err)
			}
			if err := c.open(dir); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(stale); !os.IsNotExist(err) {
				t.Error("stale temp file survived store open")
			}
			if _, err := os.Stat(fresh); err != nil {
				t.Error("fresh temp file (possible in-flight write) was removed")
			}
		})
	}
}
