package config

import (
	"strings"
	"testing"
)

// TestTable1Defaults pins every value of the paper's Table 1.
func TestTable1Defaults(t *testing.T) {
	c := Default()
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"Fetch/Decode BW", c.FetchWidth, 4},
		{"CP ROB size", c.ROBSize, 64},
		{"ME max instructions", c.EpochMaxInsts, 128},
		{"ME max loads", c.EpochMaxLoads, 64},
		{"ME max stores", c.EpochMaxStores, 32},
		{"CP int IQ", c.IntIQ, 40},
		{"CP fp IQ", c.FpIQ, 40},
		{"ME issue width", c.MEIssueWidth, 2},
		{"cache ports", c.CachePorts, 2},
		{"L1 size", c.L1.SizeBytes, 32 << 10},
		{"L1 ways", c.L1.Ways, 4},
		{"L1 line", c.L1.LineBytes, 32},
		{"L1 latency", c.L1.LatencyCycles, 1},
		{"L2 size", c.L2.SizeBytes, 2 << 20},
		{"L2 ways", c.L2.Ways, 4},
		{"L2 latency", c.L2.LatencyCycles, 10},
		{"mem latency", c.MemLatency, 400},
		{"epochs", c.NumEpochs, 16},
	}
	for _, chk := range checks {
		if chk.got != chk.want {
			t.Errorf("%s = %d, want %d (Table 1)", chk.name, chk.got, chk.want)
		}
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Default() does not validate: %v", err)
	}
}

func TestOoO64(t *testing.T) {
	c := OoO64()
	if c.Model != ModelOoO || c.LSQ != LSQConventional {
		t.Errorf("OoO64 model/lsq = %v/%v", c.Model, c.LSQ)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("OoO64() does not validate: %v", err)
	}
	if c.WindowSize() != 64 {
		t.Errorf("OoO-64 window = %d, want 64", c.WindowSize())
	}
}

func TestWindowSizeFMC(t *testing.T) {
	c := Default()
	// Paper: FMC emulates a window of around 1500 in-flight instructions
	// (16 epochs x 128 + 64-entry CP ROB = 2112 capacity; occupancy ~1500).
	if got := c.WindowSize(); got != 64+16*128 {
		t.Errorf("FMC window = %d, want %d", got, 64+16*128)
	}
}

func TestCacheGeometry(t *testing.T) {
	c := Default()
	if s := c.L1.Sets(); s != 256 {
		t.Errorf("32KB/4way/32B L1 sets = %d, want 256", s)
	}
	if l := c.L1.Lines(); l != 1024 {
		t.Errorf("L1 lines = %d, want 1024", l)
	}
	if s := c.L2.Sets(); s != 16384 {
		t.Errorf("2MB/4way/32B L2 sets = %d, want 16384", s)
	}
}

func TestValidateErrors(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
		frag string
	}{
		{"fetch", func(c *Config) { c.FetchWidth = 0 }, "FetchWidth"},
		{"commit", func(c *Config) { c.CommitWidth = -1 }, "CommitWidth"},
		{"rob", func(c *Config) { c.ROBSize = 0 }, "ROBSize"},
		{"ports", func(c *Config) { c.CachePorts = 0 }, "CachePorts"},
		{"epochs", func(c *Config) { c.NumEpochs = 0 }, "NumEpochs"},
		{"epochinsts", func(c *Config) { c.EpochMaxInsts = 0 }, "EpochMaxInsts"},
		{"l1", func(c *Config) { c.L1.Ways = 0 }, "L1"},
		{"l2", func(c *Config) { c.L2.SizeBytes = 0 }, "L2"},
		{"l1pow2", func(c *Config) { c.L1.SizeBytes = 3 * 10240 }, "power of two"},
		{"l1nosets", func(c *Config) { c.L1.SizeBytes = 64 }, "L1 set count 0"},
		{"l2nosets", func(c *Config) { c.L2.SizeBytes = 64 }, "L2 set count 0"},
		{"l1line", func(c *Config) { c.L1.LineBytes, c.L1.SizeBytes = 48, 24<<10 }, "L1 line size 48"},
		{"l2line", func(c *Config) { c.L2.LineBytes, c.L2.SizeBytes = 48, 4*48 }, "L2 line size 48"},
		{"ertbits", func(c *Config) { c.ERTHashBits = 0 }, "ERTHashBits"},
		{"maxinsts", func(c *Config) { c.MaxInsts = 0 }, "MaxInsts"},
		// Values that passed Validate and then panicked building a
		// calendar or the fabric, ran out of memory sizing a ring, or
		// hung widening the calendar horizon.
		{"meissue", func(c *Config) { c.MEIssueWidth = 0 }, "MEIssueWidth"},
		{"fetchwide", func(c *Config) { c.FetchWidth = 1_000_000_000 }, "FetchWidth"},
		{"commitwide", func(c *Config) { c.CommitWidth = 100_000_000_000 }, "CommitWidth"},
		{"portswide", func(c *Config) { c.CachePorts = 256 }, "CachePorts"},
		{"busoneway", func(c *Config) { c.BusOneWay = -4 }, "BusOneWay"},
		{"meshhop", func(c *Config) { c.MeshHop = -1 }, "MeshHop"},
		{"robhuge", func(c *Config) { c.ROBSize = 100_000_000_000 }, "ROBSize"},
		{"iqhuge", func(c *Config) { c.IntIQ = 1 << 40 }, "IntIQ"},
		{"hlqhuge", func(c *Config) { c.HLSQSize = 1 << 40 }, "HLSQSize"},
		{"epochinstshuge", func(c *Config) { c.EpochMaxInsts = 108086391056891904 }, "EpochMaxInsts"},
		{"window", func(c *Config) { c.NumEpochs, c.EpochMaxInsts = 128, 1024 }, "window"},
		{"oooepochs", func(c *Config) { c.Model, c.LSQ, c.NumEpochs = ModelOoO, LSQConventional, 0 }, "NumEpochs"},
		{"oooepochshuge", func(c *Config) { c.Model, c.LSQ, c.NumEpochs = ModelOoO, LSQConventional, 1<<30 }, "NumEpochs"},
		// No field reads zero as its default.
		{"linkwidth", func(c *Config) { c.NoCLinkWidth = 0 }, "NoCLinkWidth"},
		{"classbits", func(c *Config) { c.ClassTableBits = 0 }, "ClassTableBits"},
		{"intervals", func(c *Config) { c.SampleIntervals = 0 }, "SampleIntervals"},
		{"energytable", func(c *Config) { c.EnergyTable = "" }, "EnergyTable"},
		{"intervalsplit", func(c *Config) { c.MaxInsts, c.SampleIntervals = 3, 4 }, "sample intervals"},
		// Simulated, then failed to price: OoO-64 builds no ERT.
		{"oooelsq", func(c *Config) { c.Model = ModelOoO }, "LSQ elsq under Model OoO-64"},
	}
	for _, m := range mutations {
		c := Default()
		m.mut(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: invalid config accepted", m.name)
			continue
		}
		if !strings.Contains(err.Error(), m.frag) {
			t.Errorf("%s: error %q does not mention %q", m.name, err, m.frag)
		}
	}
	// SSBF bits only checked under SVW scheme.
	c := Default()
	c.LSQ = LSQSVW
	c.SSBFBits = 30
	if c.Validate() == nil {
		t.Error("SSBFBits=30 accepted under SVW")
	}
}

func TestNames(t *testing.T) {
	cases := []struct {
		mut  func(*Config)
		want string
	}{
		{func(c *Config) { c.Model = ModelOoO; c.LSQ = LSQConventional }, "OoO-64"},
		{func(c *Config) { c.Model = ModelOoO; c.LSQ = LSQSVW }, "OoO-64-SVW"},
		{func(c *Config) { c.LSQ = LSQCentral }, "FMC-Central"},
		{func(c *Config) { c.LSQ = LSQSVW }, "FMC-Hash-SVW"},
		{func(c *Config) { c.LSQ = LSQSVW; c.ERT = ERTLine }, "FMC-Line-SVW"},
		{func(c *Config) { c.ERT = ERTHash; c.SQM = false }, "FMC-Hash"},
		{func(c *Config) { c.ERT = ERTLine; c.SQM = false }, "FMC-Line"},
		{func(c *Config) { c.ERT = ERTHash; c.SQM = true }, "FMC-Hash+SQM"},
		{func(c *Config) { c.ERT = ERTHash; c.SQM = false; c.Disamb = DisambRSAC }, "FMC-Hash-RSAC"},
	}
	for _, tc := range cases {
		c := Default()
		tc.mut(&c)
		if got := c.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

func TestStringers(t *testing.T) {
	if ModelOoO.String() != "OoO-64" || ModelFMC.String() != "FMC" {
		t.Error("Model strings wrong")
	}
	for s, want := range map[LSQScheme]string{
		LSQCentral: "central", LSQConventional: "conventional",
		LSQELSQ: "elsq", LSQSVW: "svw",
	} {
		if s.String() != want {
			t.Errorf("LSQScheme %d = %q, want %q", s, s.String(), want)
		}
	}
	if ERTLine.String() != "line" || ERTHash.String() != "hash" {
		t.Error("ERTKind strings wrong")
	}
	for d, want := range map[Disambiguation]string{
		DisambFull: "full", DisambRSAC: "rsac",
		DisambRLAC: "rlac", DisambRSACLAC: "rsac+rlac",
	} {
		if d.String() != want {
			t.Errorf("Disambiguation %d = %q, want %q", d, d.String(), want)
		}
	}
	if SVWBlind.String() != "blind" || SVWCheckStores.String() != "checkstores" {
		t.Error("SVWVariant strings wrong")
	}
}

// TestTraceIdentity pins the trace-field identity rules: a resolved digest
// content-addresses the config regardless of the file's path, and the trace
// identity separates warm-up keys.
func TestTraceIdentity(t *testing.T) {
	base := Default()
	resolvedA := Default()
	resolvedA.TracePath = "/tmp/a.elt"
	resolvedA.TraceDigest = "00112233445566778899aabbccddeeff"
	resolvedB := Default()
	resolvedB.TracePath = "/elsewhere/b.elt"
	resolvedB.TraceDigest = resolvedA.TraceDigest
	if resolvedA.Hash() != resolvedB.Hash() {
		t.Error("same trace content under different paths split the canonical identity")
	}
	if resolvedA.Hash() == base.Hash() {
		t.Error("a trace-driven config shares the live config's identity")
	}
	if resolvedA.WarmKey() == base.WarmKey() {
		t.Error("a trace-driven config shares the live config's warm key")
	}
	otherDigest := resolvedA
	otherDigest.TraceDigest = "ffeeddccbbaa99887766554433221100"
	if otherDigest.Hash() == resolvedA.Hash() {
		t.Error("different trace contents share a canonical identity")
	}
	if otherDigest.WarmKey() == resolvedA.WarmKey() {
		t.Error("different trace contents share a warm key")
	}

	// Unresolved configs fall back to path identity (better than colliding
	// with live generation; Resolve upgrades them to content addressing).
	unresolved := Default()
	unresolved.TracePath = "/tmp/a.elt"
	if unresolved.Hash() == base.Hash() || unresolved.WarmKey() == base.WarmKey() {
		t.Error("an unresolved trace config collides with the live config")
	}
}
