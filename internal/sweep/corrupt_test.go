package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/cpu"
	"repro/internal/simrun"
)

// TestCorruptStoredEntryIsAMiss runs mcf and gzip over a checkpoint store
// and a result cache on disk, wired the way cmd/elsqsweep wires -ckptdir
// and -cachedir, then edits one stored file in place under its old digest
// line, or under a digest line rewritten to match. The next Run must
// rebuild or re-simulate what the entry described, reproduce the clean
// run's outcomes and rewrite the entry, so a third Run is served from the
// stores again.
func TestCorruptStoredEntryIsAMiss(t *testing.T) {
	cfg := tinyConfig()
	jobs := []Job{
		{Config: cfg, Bench: bench(t, "mcf"), Seed: 1},
		{Config: cfg, Bench: bench(t, "gzip"), Seed: 1},
	}
	run := func(t *testing.T, ckptDir, cacheDir string) ([]Outcome, Stats) {
		t.Helper()
		r := Runner{Workers: 2}
		var err error
		if r.Cache, err = NewDiskCache(cacheDir); err != nil {
			t.Fatal(err)
		}
		if r.Checkpoints, err = ckpt.NewDiskStore(ckptDir); err != nil {
			t.Fatal(err)
		}
		out, stats, err := r.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return out, stats
	}
	same := func(got, want []Outcome) bool {
		for i := range want {
			if !reflect.DeepEqual(got[i].Result, want[i].Result) {
				return false
			}
		}
		return ResultsDigest(got) == ResultsDigest(want)
	}

	clean := t.TempDir()
	want, stats := run(t, filepath.Join(clean, "ckpt"), filepath.Join(clean, "cache"))
	if stats.Ran != 2 || stats.CheckpointsBuilt != 2 {
		t.Fatalf("clean run: %+v", stats)
	}

	gzipSnap := ckpt.Key(&cfg, "gzip", 1) + ".json"
	editSnap := func(edit func(*ckpt.Snapshot)) func(t *testing.T, body []byte) []byte {
		return func(t *testing.T, body []byte) []byte {
			var snap ckpt.Snapshot
			if err := json.Unmarshal(body, &snap); err != nil {
				t.Fatal(err)
			}
			edit(&snap)
			// Without the digest check the edited snapshot would be served:
			// it must resume to an error or to different results.
			p := simrun.Point{Config: cfg, Bench: "gzip", Seed: 1, Snapshot: &snap}
			if o, err := p.Run(nil); err == nil && reflect.DeepEqual(o.Result, want[1].Result) {
				t.Fatal("fixture: the edited snapshot resumes to the clean result")
			}
			return marshal(t, &snap)
		}
	}
	for _, c := range []struct {
		name string
		// file is the edited entry, under the ckpt or cache directory.
		dir, file string
		edit      func(t *testing.T, body []byte) []byte
		// redigest rewrites the digest line to match the edited body, so
		// the store serves the entry and the restore must reject it.
		redigest bool
		// freshCache gives every Run an empty result cache, so the jobs
		// reach the checkpoint store (cmd/elsqsweep with a new -cachedir).
		freshCache         bool
		wantBuilt, wantRan int
	}{
		{
			name: "snapshot rng in range", dir: "ckpt", file: gzipSnap, freshCache: true,
			edit:      editSnap(func(s *ckpt.Snapshot) { s.Source.RNG++ }),
			wantBuilt: 1, wantRan: 2,
		},
		{
			name: "snapshot use clock out of range", dir: "ckpt", file: gzipSnap, freshCache: true,
			edit:      editSnap(func(s *ckpt.Snapshot) { s.Hier.L1.UseClock = math.MaxUint32 }),
			wantBuilt: 1, wantRan: 2,
		},
		{
			name: "snapshot use clock out of range, digest matching", dir: "ckpt", file: gzipSnap, freshCache: true,
			edit:      editSnap(func(s *ckpt.Snapshot) { s.Hier.L1.UseClock = math.MaxUint32 }),
			redigest:  true,
			wantBuilt: 1, wantRan: 2,
		},
		{
			name: "result cycles", dir: "cache", file: jobs[1].Key() + ".json",
			edit: func(t *testing.T, body []byte) []byte {
				var r cpu.Result
				if err := json.Unmarshal(body, &r); err != nil {
					t.Fatal(err)
				}
				r.Cycles++
				return marshal(t, &r)
			},
			wantBuilt: 0, wantRan: 1,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, d := range []string{"ckpt", "cache"} {
				copyDir(t, filepath.Join(clean, d), filepath.Join(dir, d))
			}
			cacheDir := func() string {
				if c.freshCache {
					return t.TempDir()
				}
				return filepath.Join(dir, "cache")
			}
			path := filepath.Join(dir, c.dir, c.file)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			digest, body, ok := bytes.Cut(b, []byte{'\n'})
			if !ok {
				t.Fatalf("%s has no digest line", c.file)
			}
			body = c.edit(t, body)
			if c.redigest {
				sum := sha256.Sum256(body)
				digest = []byte(hex.EncodeToString(sum[:]))
			}
			edited := slices.Concat(digest, []byte{'\n'}, body)
			if err := os.WriteFile(path, edited, 0o644); err != nil {
				t.Fatal(err)
			}

			got, stats := run(t, filepath.Join(dir, "ckpt"), cacheDir())
			if stats.CheckpointsBuilt != c.wantBuilt || stats.Ran != c.wantRan {
				t.Errorf("run over the edited entry: %+v; want %d checkpoints built, %d simulated",
					stats, c.wantBuilt, c.wantRan)
			}
			if !same(got, want) {
				t.Error("run over the edited entry diverged from the clean run")
			}
			if b, err := os.ReadFile(path); err != nil || bytes.Equal(b, edited) {
				t.Errorf("the edited entry was not rewritten (%v)", err)
			}

			got, stats = run(t, filepath.Join(dir, "ckpt"), cacheDir())
			served := stats.CheckpointsBuilt == 0
			if !c.freshCache {
				served = served && stats.CacheHits == 2 && stats.Ran == 0
			}
			if !served {
				t.Errorf("third run was not served from the stores: %+v", stats)
			}
			if !same(got, want) {
				t.Error("third run diverged from the clean run")
			}
		})
	}
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		b, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
