package simrun_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/simrun"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestDoneContextFailsBeforeWork: a point handed a context that is already
// done fails with the context's error before it builds a warm-up or a
// simulator.
func TestDoneContextFailsBeforeWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ckpts := store.NewMem[ckpt.Snapshot]()
	cfg := config.Default().WithBudget(testMeasure, testWarmup)
	_, err := (simrun.Point{Config: cfg, Bench: "mcf", Seed: 1, Ckpt: ckpts}).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with a cancelled context returned %v, want context.Canceled", err)
	}
	if ckpts.Len() != 0 {
		t.Fatalf("a cancelled point built %d warm-up checkpoints", ckpts.Len())
	}
}

// TestShortTraceRefused: a trace-driven point that reads more instructions
// than its recording holds (warm-up + measured + sample bleeds) fails before
// any warm-up is built, so it cannot fail a shared build that shorter points
// wait on; ckpt.Build refuses a trace shorter than its warm-up. A point that
// reads the whole recording runs.
func TestShortTraceRefused(t *testing.T) {
	cfg := config.Default().WithBudget(testMeasure, testWarmup)
	cfg.TracePath = recordBudget(t, &cfg, "mcf", 1)
	ckpts := store.NewMem[ckpt.Snapshot]()
	for _, over := range []func(*config.Config){
		func(c *config.Config) { c.MaxInsts++ },
		func(c *config.Config) { c.SampleIntervals, c.SampleBleedInsts = 2, 1 },
	} {
		long := cfg
		over(&long)
		if _, err := (simrun.Point{Config: long, Bench: "mcf", Seed: 1, Ckpt: ckpts}).Run(nil); err == nil {
			t.Errorf("a point reading past its recording ran (insts %d, intervals %d)", long.MaxInsts, long.SampleIntervals)
		}
	}
	if ckpts.Len() != 0 {
		t.Fatalf("refused points built %d warm-up checkpoints", ckpts.Len())
	}
	if _, err := (simrun.Point{Config: cfg, Bench: "mcf", Seed: 1, Ckpt: ckpts}).Run(nil); err != nil {
		t.Fatalf("a point reading exactly its recording: %v", err)
	}
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	warm := cfg
	warm.WarmupInsts = testWarmup + testMeasure + 1
	if _, err := ckpt.Build(&warm, prof, 1); err == nil {
		t.Error("ckpt.Build warmed past the end of its recording")
	}
}

// TestTracePointWithoutStoreDecodesOnce: a trace-driven point with neither
// Snapshot nor Ckpt (elsqsim -trace, the examples) builds its warm-up
// checkpoint inside the trace's verification pass, so past that pass it
// decodes only the blocks it measures: 2 of a 24,000-record swim recording
// warmed for 20,000 instructions, where a functional warm-up decoded all
// 6 again. It resumes from that checkpoint and simulates what a
// store-backed run of the same point does.
func TestTracePointWithoutStoreDecodesOnce(t *testing.T) {
	cfg := config.Default().WithBudget(4_000, 20_000)
	path := recordBudget(t, &cfg, "swim", 1)
	tr, err := trace.Cached(path)
	if err != nil {
		t.Fatal(err)
	}
	out, err := (simrun.Point{Config: cfg, Bench: "swim", Seed: 1, TracePath: path}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := tr.Decodes(); d != 2 {
		t.Errorf("the point decoded %d blocks outside the verification pass, want 2 (the measured blocks)", d)
	}
	if !out.Resumed || !out.CkptBuilt {
		t.Errorf("the point reported Resumed %v and CkptBuilt %v, want both", out.Resumed, out.CkptBuilt)
	}
	stored, err := (simrun.Point{Config: cfg, Bench: "swim", Seed: 1, TracePath: path, Ckpt: store.NewMem[ckpt.Snapshot]()}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "store-less trace point", out.Result, stored.Result)
	t.Logf("%d cycles without a store, %d with one", out.Result.Cycles, stored.Result.Cycles)
}
