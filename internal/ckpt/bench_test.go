package ckpt_test

import (
	"testing"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/workload"
)

// gccL2Image returns the Table 1 L2 geometry and gcc's seed-1 L2 image
// after a 1M-instruction warm-up, the budget perf's paper-all warms.
func gccL2Image(b *testing.B) (config.CacheConfig, *mem.CacheState) {
	cfg := config.Default()
	cfg.WarmupInsts = 1_000_000
	prof, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	snap, err := ckpt.Build(&cfg, prof, 1)
	if err != nil {
		b.Fatal(err)
	}
	return cfg.L2, snap.Hier.L2
}

// BenchmarkCacheStateRestore restores the image onto one cache, as every
// resumed point does at each level: a paper-all pass restores about 1,300
// times.
func BenchmarkCacheStateRestore(b *testing.B) {
	g, img := gccL2Image(b)
	c := mem.NewCache(g)
	defer c.Free()
	for b.Loop() {
		if err := c.SetState(img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheStateImage images the restored cache, as each checkpoint
// build does once.
func BenchmarkCacheStateImage(b *testing.B) {
	g, img := gccL2Image(b)
	c := mem.NewCache(g)
	defer c.Free()
	if err := c.SetState(img); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		c.State()
	}
}
