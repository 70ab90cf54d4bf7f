package simrun_test

import (
	"encoding/json"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/simrun"
	"repro/internal/workload"
)

// fuzzConfig is the configuration every FuzzSnapshotResume input resumes
// under: Table 1 timing over small caches, so a snapshot's JSON stays a
// few kilobytes the fuzzer can mutate usefully.
func fuzzConfig() config.Config {
	cfg := config.Default()
	cfg.L1.SizeBytes = 4 << 10
	cfg.L2.SizeBytes = 32 << 10
	cfg.WarmupInsts = 20_000
	cfg.MaxInsts = 3_000
	return cfg
}

// FuzzSnapshotResume decodes each input as a JSON checkpoint and resumes
// it. Corrupt snapshots must be refused with an error; whatever resumes
// must run its measured budget to the end. Nothing may panic.
//
// Seeds: real warm-ups of mcf and swim, then one corruption each of the
// L2 validity map, an L2 line record, a kernel word and a queued
// instruction's register.
func FuzzSnapshotResume(f *testing.F) {
	cfg := fuzzConfig()
	build := func(bench string) *ckpt.Snapshot {
		prof, err := workload.ByName(bench)
		if err != nil {
			f.Fatal(err)
		}
		snap, err := ckpt.Build(&cfg, prof, 1)
		if err != nil {
			f.Fatal(err)
		}
		return snap
	}
	encode := func(snap *ckpt.Snapshot) []byte {
		b, err := json.Marshal(snap)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	// corrupt returns the encoding of a deep copy of snap after bad.
	corrupt := func(snap *ckpt.Snapshot, bad func(*ckpt.Snapshot)) []byte {
		var c ckpt.Snapshot
		if err := json.Unmarshal(encode(snap), &c); err != nil {
			f.Fatal(err)
		}
		bad(&c)
		return encode(&c)
	}
	mcf, swim := build("mcf"), build("swim")
	if len(swim.Source.Queue) == 0 || len(swim.Source.Kernel) < 5 {
		f.Fatal("fixture: swim's warm-up must end mid-batch with its stream kernel state")
	}
	f.Add(encode(mcf))
	f.Add(encode(swim))
	f.Add(corrupt(mcf, func(s *ckpt.Snapshot) { s.Hier.L2.Valid[0] ^= 1 }))
	f.Add(corrupt(mcf, func(s *ckpt.Snapshot) { s.Hier.L2.Lines[0] &^= 1 }))      // first line's valid bit
	f.Add(corrupt(swim, func(s *ckpt.Snapshot) { s.Source.Kernel[4] = 1 << 62 })) // the cold stream's burst
	f.Add(corrupt(swim, func(s *ckpt.Snapshot) { s.Source.Queue[0].Dst = 999 }))

	f.Fuzz(func(t *testing.T, data []byte) {
		var snap ckpt.Snapshot
		if json.Unmarshal(data, &snap) != nil {
			return
		}
		out, err := simrun.Point{Config: cfg, Bench: snap.Bench, Seed: snap.Seed, Snapshot: &snap}.Run(nil)
		if err != nil {
			return
		}
		if out.Result.Committed != cfg.MaxInsts {
			t.Fatalf("resumed run committed %d instructions, want %d", out.Result.Committed, cfg.MaxInsts)
		}
	})
}
