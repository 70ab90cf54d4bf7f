package cpu

import (
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// quickCfg shrinks simulation sizes so the test suite stays fast.
func quickCfg(base config.Config) config.Config {
	base.MaxInsts = 30_000
	base.WarmupInsts = 300_000
	return base
}

func run(t *testing.T, cfg config.Config, bench string, seed uint64) *Result {
	t.Helper()
	p, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(cfg, p.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sim.Run()
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := config.Default()
	cfg.FetchWidth = 0
	p, _ := workload.ByName("swim")
	if _, err := New(cfg, p.New(1)); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestDeterminism(t *testing.T) {
	for _, mut := range []func(*config.Config){
		nil,
		func(c *config.Config) { c.LSQ = config.LSQCentral },
		func(c *config.Config) { c.LSQ = config.LSQSVW },
		func(c *config.Config) { c.ERT = config.ERTLine },
	} {
		cfg := quickCfg(config.Default())
		if mut != nil {
			mut(&cfg)
		}
		a := run(t, cfg, "gcc", 7)
		b := run(t, cfg, "gcc", 7)
		if a.Cycles != b.Cycles || a.IPC != b.IPC {
			t.Fatalf("%s nondeterministic: %d vs %d cycles", cfg.Name(), a.Cycles, b.Cycles)
		}
		for _, k := range a.Counters.Names() {
			if a.Counters.Get(k) != b.Counters.Get(k) {
				t.Fatalf("%s counter %s differs", cfg.Name(), k)
			}
		}
	}
}

func TestOoODeterminism(t *testing.T) {
	cfg := quickCfg(config.OoO64())
	a := run(t, cfg, "twolf", 3)
	b := run(t, cfg, "twolf", 3)
	if a.Cycles != b.Cycles {
		t.Fatal("OoO-64 nondeterministic")
	}
}

func TestIPCBounds(t *testing.T) {
	// IPC can never exceed the fetch width and must be positive.
	for _, bench := range []string{"eon", "mcf", "swim"} {
		r := run(t, quickCfg(config.Default()), bench, 1)
		if r.IPC <= 0 || r.IPC > 4 {
			t.Errorf("%s IPC = %v out of (0,4]", bench, r.IPC)
		}
		if r.Committed != 30_000 {
			t.Errorf("%s committed %d", bench, r.Committed)
		}
	}
}

// The fundamental large-window result: FMC beats OoO-64 on memory-level-
// parallel code (streams), is roughly neutral on serial pointer chases, and
// exactly neutral on cache-resident code that never activates the MP.
func TestLargeWindowShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test")
	}
	cases := []struct {
		bench  string
		minSpd float64
		maxSpd float64
	}{
		{"swim", 2.0, 8.0},  // MLP-rich stream
		{"art", 2.0, 12.0},  // heaviest stream
		{"mcf", 0.9, 1.6},   // serialised chase
		{"eon", 0.95, 1.05}, // L1-resident, MP idle
	}
	for _, tc := range cases {
		ooo := run(t, quickCfg(config.OoO64()), tc.bench, 1)
		fmcR := run(t, quickCfg(config.Default()), tc.bench, 1)
		spd := fmcR.IPC / ooo.IPC
		if spd < tc.minSpd || spd > tc.maxSpd {
			t.Errorf("%s speedup = %.2f, want [%.1f, %.1f] (OoO %.3f, FMC %.3f)",
				tc.bench, spd, tc.minSpd, tc.maxSpd, ooo.IPC, fmcR.IPC)
		}
	}
}

func TestLLIdleTracking(t *testing.T) {
	// eon never misses: the Memory Processor should be idle essentially
	// always. art misses constantly: nearly never idle.
	idle := run(t, quickCfg(config.Default()), "eon", 1).LLIdleFrac
	if idle < 0.95 {
		t.Errorf("eon LL idle = %.2f, want ~1", idle)
	}
	busy := run(t, quickCfg(config.Default()), "art", 1).LLIdleFrac
	if busy > 0.2 {
		t.Errorf("art LL idle = %.2f, want ~0", busy)
	}
}

func TestFigure1Histograms(t *testing.T) {
	r := run(t, quickCfg(config.Default()), "swim", 1)
	if r.LoadDist.Total == 0 || r.StoreDist.Total == 0 {
		t.Fatal("locality histograms empty")
	}
	// Stream addresses come from an induction register: almost all address
	// calculations complete within the first 30-cycle bucket.
	if f := r.LoadDist.FracWithin(30); f < 0.85 {
		t.Errorf("swim loads within 30 cycles = %.2f, want > 0.85", f)
	}
	// mcf: pointer-chase loads have far more low-locality address calcs.
	r2 := run(t, quickCfg(config.Default()), "mcf", 1)
	if f := r2.LoadDist.FracWithin(30); f > 0.9 {
		t.Errorf("mcf loads within 30 cycles = %.2f, expected pointer-chase tail", f)
	}
}

func TestSQMReducesRoundTrips(t *testing.T) {
	with := quickCfg(config.Default())
	without := with
	without.SQM = false
	a := run(t, with, "gcc", 1)
	b := run(t, without, "gcc", 1)
	if a.Counters.Get("sqm_search") == 0 {
		t.Error("SQM never searched")
	}
	if b.Counters.Get("roundtrip") <= a.Counters.Get("roundtrip") {
		t.Errorf("SQM did not reduce round trips: %d vs %d",
			a.Counters.Get("roundtrip"), b.Counters.Get("roundtrip"))
	}
}

func TestSVWReexecutions(t *testing.T) {
	cfg := quickCfg(config.Default())
	cfg.LSQ = config.LSQSVW
	cfg.SSBFBits = 8
	cfg.SVW = config.SVWBlind
	blind8 := run(t, cfg, "gcc", 1)
	if blind8.Counters.Get("reexec") == 0 {
		t.Fatal("SVW never re-executed with an 8-bit SSBF")
	}
	cfg.SSBFBits = 12
	blind12 := run(t, cfg, "gcc", 1)
	if blind12.Counters.Get("reexec") >= blind8.Counters.Get("reexec") {
		t.Errorf("12-bit SSBF should alias less: %d vs %d",
			blind12.Counters.Get("reexec"), blind8.Counters.Get("reexec"))
	}
	cfg.SSBFBits = 8
	cfg.SVW = config.SVWCheckStores
	check8 := run(t, cfg, "gcc", 1)
	if check8.Counters.Get("reexec") >= blind8.Counters.Get("reexec") {
		t.Errorf("CheckStores should filter re-executions: %d vs %d",
			check8.Counters.Get("reexec"), blind8.Counters.Get("reexec"))
	}
	if blind8.Counters.Get("ssbf_read")+blind8.Counters.Get("ssbf_write") == 0 {
		t.Error("SSBF accesses not counted")
	}
}

// Large windows re-execute far more often than small ones (Fig 10's framing:
// 1-in-715 at 64 entries vs 1-in-95 at ~1500 for the paper's setup).
func TestSVWWindowDependence(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test")
	}
	small := quickCfg(config.OoO64())
	small.LSQ = config.LSQSVW
	large := quickCfg(config.Default())
	large.LSQ = config.LSQSVW
	rs := run(t, small, "vortex", 1)
	rl := run(t, large, "vortex", 1)
	rateSmall := float64(rs.Counters.Get("reexec")) / float64(rs.Committed)
	rateLarge := float64(rl.Counters.Get("reexec")) / float64(rl.Committed)
	if rateLarge <= rateSmall {
		t.Errorf("re-execution rate should grow with window: %.5f vs %.5f",
			rateSmall, rateLarge)
	}
}

func TestTable2CounterPresence(t *testing.T) {
	r := run(t, quickCfg(config.Default()), "gcc", 1)
	for _, k := range []string{"hl_sq", "hl_lq", "ll_sq", "ert", "l1_access"} {
		if r.Counters.Get(k) == 0 {
			t.Errorf("counter %s is zero on FMC-Hash gcc", k)
		}
	}
	ooo := run(t, quickCfg(config.OoO64()), "gcc", 1)
	for _, k := range []string{"ll_sq", "ert", "roundtrip"} {
		if ooo.Counters.Get(k) != 0 {
			t.Errorf("OoO-64 counted FMC structure %s = %d", k, ooo.Counters.Get(k))
		}
	}
}

func TestWrongPathInflatesSearches(t *testing.T) {
	// The same benchmark with mispredicts produces wrong-path queue
	// activity; hl_sq must exceed committed loads.
	r := run(t, quickCfg(config.Default()), "twolf", 1)
	if r.Counters.Get("wrongpath_load") == 0 {
		t.Error("no wrong-path loads injected on a mispredict-heavy benchmark")
	}
}

func TestCentralBeatenOrMatchedByELSQWithSQM(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test")
	}
	// Section 5.3: once the SQM is implemented, ELSQ performs at the same
	// speed as the idealised central queue (slightly better on FP thanks
	// to local LL forwardings).
	var elsq, central float64
	for _, bench := range []string{"swim", "gcc", "applu", "perlbmk"} {
		e := run(t, quickCfg(config.Default()), bench, 1)
		c := quickCfg(config.Default())
		c.LSQ = config.LSQCentral
		cr := run(t, c, bench, 1)
		elsq += e.IPC
		central += cr.IPC
	}
	if elsq < 0.97*central {
		t.Errorf("ELSQ+SQM (%.3f) fell more than 3%% behind central (%.3f)", elsq, central)
	}
}

func TestRestrictedSACEquakeOutlier(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test")
	}
	full := run(t, quickCfg(config.Default()), "equake", 1)
	cfg := quickCfg(config.Default())
	cfg.Disamb = config.DisambRSAC
	rsac := run(t, cfg, "equake", 1)
	loss := 1 - rsac.IPC/full.IPC
	if loss < 0.15 {
		t.Errorf("equake RSAC loss = %.1f%%, paper reports ~30%%", loss*100)
	}
	if rsac.Counters.Get("rsac_stall") == 0 {
		t.Error("no RSAC stalls recorded on equake")
	}
	// And swim must be essentially unaffected.
	fullS := run(t, quickCfg(config.Default()), "swim", 1)
	rsacS := run(t, cfg, "swim", 1)
	if rsacS.IPC < 0.97*fullS.IPC {
		t.Errorf("swim RSAC loss = %.1f%%, want ~0", (1-rsacS.IPC/fullS.IPC)*100)
	}
}

func TestLineERTWorks(t *testing.T) {
	cfg := quickCfg(config.Default())
	cfg.ERT = config.ERTLine
	r := run(t, cfg, "applu", 1)
	if r.IPC <= 0 {
		t.Fatal("line-ERT run produced no progress")
	}
	hash := quickCfg(config.Default())
	h := run(t, hash, "applu", 1)
	// The two filters should perform comparably (Fig 7).
	if r.IPC < 0.9*h.IPC || r.IPC > 1.1*h.IPC {
		t.Errorf("line vs hash ERT IPC: %.3f vs %.3f", r.IPC, h.IPC)
	}
}

func TestViolationDetection(t *testing.T) {
	// equake's pointer-derived store addresses resolve late; its loads can
	// issue before an aliasing store resolves. Over a long run some
	// violations should occur and be counted without breaking anything.
	r := run(t, quickCfg(config.Default()), "equake", 1)
	_ = r.Counters.Get("violation") // presence only; rare by construction
}

func TestAvgEpochsReasonable(t *testing.T) {
	r := run(t, quickCfg(config.Default()), "applu", 1)
	if r.AvgEpochs <= 0 || r.AvgEpochs > 16 {
		t.Errorf("AvgEpochs = %.2f out of (0,16]", r.AvgEpochs)
	}
}

// TestSampledMeasurement pins the multi-interval sampling semantics: the
// measured instruction count is exactly MaxInsts regardless of the interval
// split, runs are deterministic, zero-bleed sampling equals contiguous
// measurement bit-for-bit, and a real bleed moves the measurement window
// (the caches advance through program phases between intervals).
func TestSampledMeasurement(t *testing.T) {
	base := quickCfg(config.Default())
	contiguous := run(t, base, "twolf", 1)

	zeroBleed := base
	zeroBleed.SampleIntervals = 4
	rz := run(t, zeroBleed, "twolf", 1)
	if rz.Committed != base.MaxInsts {
		t.Fatalf("sampled run committed %d, want %d", rz.Committed, base.MaxInsts)
	}
	if rz.Cycles != contiguous.Cycles || rz.IPC != contiguous.IPC {
		t.Errorf("zero-bleed sampling diverged from contiguous measurement: %d/%f vs %d/%f",
			rz.Cycles, rz.IPC, contiguous.Cycles, contiguous.IPC)
	}

	sampled := base
	sampled.SampleIntervals = 4
	sampled.SampleBleedInsts = 50_000
	r1 := run(t, sampled, "twolf", 1)
	r2 := run(t, sampled, "twolf", 1)
	if r1.Committed != base.MaxInsts {
		t.Fatalf("bled sampled run committed %d, want %d", r1.Committed, base.MaxInsts)
	}
	if r1.Cycles != r2.Cycles || r1.IPC != r2.IPC {
		t.Error("sampled measurement is not deterministic")
	}
	if r1.Cycles == contiguous.Cycles {
		t.Error("bleed did not move the measurement window (cycles identical to contiguous run)")
	}

	// An uneven split still measures exactly MaxInsts.
	uneven := base
	uneven.MaxInsts = 30_001
	uneven.SampleIntervals = 4
	uneven.SampleBleedInsts = 1_000
	if r := run(t, uneven, "twolf", 1); r.Committed != 30_001 {
		t.Errorf("uneven split committed %d, want 30001", r.Committed)
	}
}

// TestRestoreWarmStateRejectsLateRestore pins the resume API contract.
func TestRestoreWarmStateRejectsLateRestore(t *testing.T) {
	cfg := quickCfg(config.Default())
	cfg.WarmupInsts = 1_000
	cfg.MaxInsts = 500
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(cfg, p.New(1))
	if err != nil {
		t.Fatal(err)
	}
	st := sim.hier.State()
	sim.Run()
	if err := sim.RestoreWarmState(st); err == nil {
		t.Error("RestoreWarmState accepted a simulator that already ran")
	}
}
