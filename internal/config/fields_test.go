package config

import (
	"encoding/json"
	"testing"
)

// Every registered field must round-trip its own Get output through Set
// without changing the config, and the registry must be sorted and free of
// duplicates.
func TestFieldRoundTrip(t *testing.T) {
	fields := Fields()
	seen := map[string]bool{}
	prev := ""
	for _, f := range fields {
		if seen[f.Name] {
			t.Errorf("duplicate field %q", f.Name)
		}
		seen[f.Name] = true
		if f.Name < prev {
			t.Errorf("Fields not sorted: %q after %q", f.Name, prev)
		}
		prev = f.Name
		c := Default()
		v := f.Get(&c)
		if err := f.Set(&c, v); err != nil {
			t.Errorf("field %s: Set(Get()) = %v", f.Name, err)
		}
		if got := f.Get(&c); got != v {
			t.Errorf("field %s: round trip %q -> %q", f.Name, v, got)
		}
	}
	if len(fields) < 30 {
		t.Errorf("registry suspiciously small: %d fields", len(fields))
	}
}

func TestSetField(t *testing.T) {
	c := Default()
	if err := SetField(&c, "l1.size", "64K"); err != nil {
		t.Fatal(err)
	}
	if c.L1.SizeBytes != 64<<10 {
		t.Errorf("l1.size=64K -> %d", c.L1.SizeBytes)
	}
	if err := SetField(&c, "ert", "line"); err != nil {
		t.Fatal(err)
	}
	if c.ERT != ERTLine {
		t.Errorf("ert=line -> %v", c.ERT)
	}
	if err := SetField(&c, "sqm", "false"); err != nil {
		t.Fatal(err)
	}
	if c.SQM {
		t.Error("sqm=false ignored")
	}
	if err := SetField(&c, "insts", "12345"); err != nil {
		t.Fatal(err)
	}
	if c.MaxInsts != 12345 {
		t.Errorf("insts=12345 -> %d", c.MaxInsts)
	}
	if err := SetField(&c, "no.such.field", "1"); err == nil {
		t.Error("unknown field accepted")
	}
	if err := SetField(&c, "rob.size", "many"); err == nil {
		t.Error("bad int accepted")
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]int{
		"4096": 4096, "16K": 16 << 10, "32k": 32 << 10, "2M": 2 << 20,
		"1G": 1 << 30, "64KB": 64 << 10,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "K", "12Q", "1.5K"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) accepted", bad)
		}
	}
}

// Enums must survive a JSON round trip in their text form, including the
// "rsac+rlac" display spelling of DisambRSACLAC.
func TestEnumTextRoundTrip(t *testing.T) {
	c := Default()
	c.Model = ModelOoO
	c.LSQ = LSQSVW
	c.ERT = ERTLine
	c.Disamb = DisambRSACLAC
	c.SVW = SVWCheckStores
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Errorf("JSON round trip changed the config:\n got %+v\nwant %+v", back, c)
	}
}

func TestHash(t *testing.T) {
	a, b := Default(), Default()
	if a.Hash() != b.Hash() {
		t.Error("equal configs hash differently")
	}
	b.L1.SizeBytes = 64 << 10
	if a.Hash() == b.Hash() {
		t.Error("different configs hash identically")
	}
	c := Default()
	c.MaxInsts = 999 // the instruction budget is part of the identity
	if a.Hash() == c.Hash() {
		t.Error("instruction budget not part of the hash")
	}
}

// TestEveryFieldReachesHash: the canonical form is the whole struct, so
// giving any axis a different valid value changes the hash — including a
// value the rest of the config makes inert (class.bits under the reactive
// policy). A field without a row fails the test.
func TestEveryFieldReachesHash(t *testing.T) {
	alt := map[string]string{
		"bus.oneway": "8", "cache.ports": "1", "class.bits": "12", "class.policy": "cachelevel",
		"commit.width": "2", "disamb": "rsac", "energy.table": "hp", "epoch.insts": "64",
		"epoch.loads": "32", "epoch.stores": "16", "epochs": "8", "ert": "line", "ert.bits": "12",
		"fetch.width": "2", "hl.lq": "16", "hl.sq": "12", "insts": "1000", "iq.fp": "20",
		"iq.int": "20", "l1.latency": "2", "l1.line": "64", "l1.size": "16K", "l1.ways": "2",
		"l2.latency": "20", "l2.line": "64", "l2.size": "1M", "l2.ways": "8", "lsq": "svw",
		"me.issue": "1", "mem.latency": "200", "mesh.hop": "2", "migrate.threshold": "24",
		"mispredict.penalty": "4", "model": "ooo", "noc.linkwidth": "2", "noc.model": "contended",
		"place.policy": "steal", "rob.size": "32", "sample.bleed": "1000", "sample.intervals": "2",
		"sqm": "false", "ssbf.bits": "12", "svw": "checkstores", "trace": "a.elt", "warmup": "1000",
	}
	base := Default()
	for _, f := range Fields() {
		v, ok := alt[f.Name]
		if !ok {
			t.Errorf("field %s has no alternate value", f.Name)
			continue
		}
		c := Default()
		if err := f.Set(&c, v); err != nil {
			t.Errorf("%s=%s: %v", f.Name, v, err)
			continue
		}
		if f.Get(&c) == f.Get(&base) {
			t.Errorf("%s=%s is the default value", f.Name, v)
		}
		if c.Hash() == base.Hash() {
			t.Errorf("%s=%s does not reach the hash", f.Name, v)
		}
		delete(alt, f.Name)
	}
	for name := range alt {
		t.Errorf("alternate value for unknown field %s", name)
	}
}
