package config

import (
	"strings"
	"testing"
)

// TestClassExcludedFromWarmKey: classification is timing-only — it moves
// instructions between the HL and LL pipelines but never changes functional
// warm-up state — so runs differing only on the classifier must share
// warm-up checkpoints.
func TestClassExcludedFromWarmKey(t *testing.T) {
	def := Default()
	clp := def
	clp.Class = ClassCacheLevel
	clp.ClassTableBits = 14
	if def.WarmKey() != clp.WarmKey() {
		t.Fatalf("warm key moved with the classifier: %s vs %s", def.WarmKey(), clp.WarmKey())
	}
}

// TestClassFieldRoundTrip exercises the registry axes elsqsweep and the
// fuzzer drive, including the spelled-out aliases.
func TestClassFieldRoundTrip(t *testing.T) {
	spec, err := FieldByName("class.policy")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	if got := spec.Get(&cfg); got != "reactive" {
		t.Fatalf("default class.policy = %q, want reactive", got)
	}
	for in, want := range map[string]ClassPolicy{
		"reactive":    ClassReactive,
		"cachelevel":  ClassCacheLevel,
		"cache-level": ClassCacheLevel,
		"clp":         ClassCacheLevel,
		"delaytrack":  ClassDelayTrack,
		"delay-track": ClassDelayTrack,
		"dtp":         ClassDelayTrack,
	} {
		if err := SetField(&cfg, "class.policy", in); err != nil {
			t.Fatalf("class.policy=%s: %v", in, err)
		}
		if cfg.Class != want {
			t.Fatalf("class.policy=%s set %v, want %v", in, cfg.Class, want)
		}
	}
	if err := SetField(&cfg, "class.policy", "psychic"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := SetField(&cfg, "class.bits", "12"); err != nil {
		t.Fatal(err)
	}
	if cfg.ClassTableBits != 12 {
		t.Fatalf("class.bits round trip lost the value: %d", cfg.ClassTableBits)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("fuzz-style point fails Validate: %v", err)
	}
}

// TestClassValidateAndDefaults: the default geometry is the documented
// 10-bit table, and out-of-range widths fail loudly.
func TestClassValidateAndDefaults(t *testing.T) {
	cfg := Default()
	if cfg.ClassTableBits != 10 {
		t.Fatalf("default ClassTableBits = %d, want 10", cfg.ClassTableBits)
	}
	for _, bits := range []int{25, 0, -1} {
		cfg.ClassTableBits = bits
		if err := cfg.Validate(); err == nil {
			t.Fatalf("ClassTableBits=%d passed Validate", bits)
		}
	}
}

// TestClassName pins the scheme-name suffixes the smoke matrix and sweep
// reports key on.
func TestClassName(t *testing.T) {
	clp := Default()
	clp.Class = ClassCacheLevel
	if n := clp.Name(); !strings.HasSuffix(n, "+CLP") {
		t.Errorf("cachelevel name %q lacks +CLP suffix", n)
	}
	dtp := Default()
	dtp.Class = ClassDelayTrack
	if n := dtp.Name(); !strings.HasSuffix(n, "+DTP") {
		t.Errorf("delaytrack name %q lacks +DTP suffix", n)
	}
	ooo := OoO64()
	ooo.Class = ClassCacheLevel
	if n := ooo.Name(); strings.Contains(n, "CLP") {
		t.Errorf("OoO name %q carries a classifier suffix (classifier is FMC-only)", n)
	}
}
