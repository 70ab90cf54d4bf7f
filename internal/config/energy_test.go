package config

import "testing"

// TestEnergyTableExcludedFromWarmKey: the coefficient table is
// observational, so runs differing only on it must share warm-up
// checkpoints.
func TestEnergyTableExcludedFromWarmKey(t *testing.T) {
	def := Default()
	hp := def
	hp.EnergyTable = "hp"
	if def.WarmKey() != hp.WarmKey() {
		t.Fatalf("warm key moved with the energy table: %s vs %s", def.WarmKey(), hp.WarmKey())
	}
}

// TestEnergyTableFieldRoundTrip exercises the registry axis elsqsweep and
// the fuzzer drive.
func TestEnergyTableFieldRoundTrip(t *testing.T) {
	spec, err := FieldByName("energy.table")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	if got := spec.Get(&cfg); got != "base" {
		t.Fatalf("default energy.table = %q, want base", got)
	}
	if err := SetField(&cfg, "energy.table", "lp"); err != nil {
		t.Fatal(err)
	}
	if cfg.EnergyTable != "lp" || spec.Get(&cfg) != "lp" {
		t.Fatalf("round trip lost the value: field %q, getter %q", cfg.EnergyTable, spec.Get(&cfg))
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("energy.table=lp fails Validate: %v", err)
	}
}
