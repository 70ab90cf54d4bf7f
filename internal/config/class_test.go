package config

import (
	"strings"
	"testing"
)

// TestClassOmittedAtDefault pins the byte-identity contract the prediction
// layer rides on: the default reactive classifier (and its table geometry)
// vanishes from the canonical encoding, so golden SweepKeys, sweep cache
// keys and checkpoint keys predating the fields stay byte-identical.
func TestClassOmittedAtDefault(t *testing.T) {
	def := Default()
	s := string(def.Canonical())
	if strings.Contains(s, "Class") {
		t.Fatalf("default canonical encoding mentions Class:\n%s", s)
	}
	clp := def
	clp.Class = ClassCacheLevel
	if !strings.Contains(string(clp.Canonical()), "Class") {
		t.Fatal("non-default Class missing from canonical encoding")
	}
	if def.Hash() == clp.Hash() {
		t.Fatal("Class does not reach the config hash")
	}
}

// TestClassBitsNormalization: table geometry is dead state under the
// reactive policy, and the default width is equivalent to leaving it unset,
// so Canonical folds both to zero — two spellings of one machine must
// share a sweep cache key.
func TestClassBitsNormalization(t *testing.T) {
	def := Default()
	reactiveBits := Default()
	reactiveBits.ClassTableBits = 12 // dead: no table exists
	if got, want := reactiveBits.Hash(), def.Hash(); got != want {
		t.Fatalf("reactive table bits reach the hash: %s vs %s", got, want)
	}

	explicit := Default()
	explicit.Class = ClassDelayTrack
	explicit.ClassTableBits = DefaultClassTableBits
	implicit := Default()
	implicit.Class = ClassDelayTrack
	if explicit.Hash() != implicit.Hash() {
		t.Fatal("explicit default table bits change the hash")
	}
	if s := string(explicit.Canonical()); strings.Contains(s, "ClassTableBits") {
		t.Fatalf("default-width table bits survive canonicalization:\n%s", s)
	}

	narrow := implicit
	narrow.ClassTableBits = 8
	if narrow.Hash() == implicit.Hash() {
		t.Fatal("non-default table bits do not reach the hash")
	}
}

// TestClassExcludedFromWarmKey: classification is timing-only — it moves
// instructions between the HL and LL pipelines but never changes functional
// warm-up state — so runs differing only on the classifier must share
// warm-up checkpoints and batch lane groups.
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
	if cfg.ClassTableBits != 12 || cfg.ClassBits() != 12 {
		t.Fatalf("class.bits round trip lost the value: %d", cfg.ClassTableBits)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("fuzz-style point fails Validate: %v", err)
	}
}

// TestClassValidateAndDefaults: the zero geometry resolves to the documented
// default width, and out-of-range widths fail loudly.
func TestClassValidateAndDefaults(t *testing.T) {
	cfg := Default()
	if cfg.ClassBits() != DefaultClassTableBits {
		t.Fatalf("zero ClassTableBits resolves to %d, want %d", cfg.ClassBits(), DefaultClassTableBits)
	}
	cfg.ClassTableBits = 25
	if err := cfg.Validate(); err == nil {
		t.Fatal("ClassTableBits=25 passed Validate")
	}
	cfg.ClassTableBits = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("ClassTableBits=-1 passed Validate")
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
