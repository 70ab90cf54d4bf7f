// Package energy is the post-run activity-energy and area model: it maps
// the per-structure action counters a simulation accumulated (LSQ searches,
// ERT probes and inserts, SSBF filter checks, cache accesses, epoch
// lifecycle events, NoC messages) through a versioned coefficient table to
// per-structure dynamic/leakage energy and area estimates.
//
// The model is Accelergy-style and strictly observational: it reads a
// finished cpu.Result, never feeds back into timing, and therefore cannot
// perturb any deterministic quantity (golden fixtures, matrix digests, sweep
// keys). Coefficients are anchored on the paper's CACTI 4.2 numbers at 70nm
// (1.95 pJ for a 2KB ERT bank read, 95.8 pJ for a 32KB L1 read) and scaled
// to other capacities with a square-root rule; they are order-of-magnitude
// estimates for comparing schemes, not sign-off numbers.
//
// The actions are the priced entries of the stats event table: each names
// the structure its events are charged to and how one event is priced
// (stats.Kind), and its count is read from Result.Counters. Compute fails
// loudly when a priced event fired for a structure the configuration does
// not instantiate, so activity can never leak out of the accounting.
package energy

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/stats"
)

// Capacity anchors for the square-root access-energy scaling rule: the
// coefficient tables quote per-access energy at these capacities, and
// accessPJ scales by sqrt(KB/anchorKB) for other sizes.
const (
	// CAMAnchorKB anchors per-search CAM energy (a ~32-entry age-ordered
	// queue bank at 16 bytes/entry).
	CAMAnchorKB = 0.5
	// FilterAnchorKB anchors small hashed-RAM reads — the paper's 2KB ERT
	// bank (1.95 pJ/read under CACTI 4.2 at 70nm).
	FilterAnchorKB = 2
	// L1AnchorKB anchors first-level cache reads — the paper's 32KB L1
	// (95.8 pJ/read under CACTI 4.2 at 70nm).
	L1AnchorKB = 32
	// L2AnchorKB anchors second-level cache reads (2MB).
	L2AnchorKB = 2048
)

// Table is one named set of energy and area coefficients. All dynamic
// coefficients are picojoules per event at the anchor capacity; leakage is
// picojoules per KB of array per cycle; area is mm² per KB of array.
type Table struct {
	// Name identifies the table ("base", "hp", "lp"); Version stamps the
	// coefficient revision so reports from different table generations are
	// distinguishable.
	Name    string `json:"name"`
	Version int    `json:"version"`

	// L1ReadPJ, L2ReadPJ, FilterReadPJ and CAMSearchPJ are per-access
	// energies at the corresponding anchor capacity, square-root-scaled to
	// the configured size. WriteFactor multiplies a read for write/insert
	// events.
	L1ReadPJ     float64 `json:"l1_read_pj"`
	L2ReadPJ     float64 `json:"l2_read_pj"`
	FilterReadPJ float64 `json:"filter_read_pj"`
	CAMSearchPJ  float64 `json:"cam_search_pj"`
	WriteFactor  float64 `json:"write_factor"`

	// ControlPJ prices one epoch-lifecycle or engine-issue control event;
	// HopPJ, OneWayPJ, RoundTripPJ and FlitPJ price NoC events; MemAccessPJ
	// prices one off-chip main-memory access (interface energy only — DRAM
	// core energy is out of scope).
	ControlPJ   float64 `json:"control_pj"`
	HopPJ       float64 `json:"hop_pj"`
	OneWayPJ    float64 `json:"oneway_pj"`
	RoundTripPJ float64 `json:"roundtrip_pj"`
	FlitPJ      float64 `json:"flit_pj"`
	MemAccessPJ float64 `json:"mem_access_pj"`

	// LeakPJPerKBCycle is array leakage; PowerDownLeakFrac is the residual
	// leakage fraction of a powered-down LL-LSQ bank (state-retentive
	// drowsy mode), applied to each bank's idle cycles via the per-bank
	// residency statistics.
	LeakPJPerKBCycle  float64 `json:"leak_pj_per_kb_cycle"`
	PowerDownLeakFrac float64 `json:"power_down_leak_frac"`

	// SRAMAreaMM2PerKB and CAMAreaMM2PerKB convert array capacity to area;
	// LinkAreaMM2 and EngineAreaMM2 price one NoC link and one memory
	// engine's control overhead (queues and ERT are accounted separately).
	SRAMAreaMM2PerKB float64 `json:"sram_area_mm2_per_kb"`
	CAMAreaMM2PerKB  float64 `json:"cam_area_mm2_per_kb"`
	LinkAreaMM2      float64 `json:"link_area_mm2"`
	EngineAreaMM2    float64 `json:"engine_area_mm2"`
}

// tables holds every named coefficient table. "base" is the CACTI-anchored
// default; "lp" models a low-leakage process (slower cells: higher access
// energy, deeper power-down); "hp" a high-performance one.
func tables() []Table {
	base := Table{
		Name:    "base",
		Version: 1,

		L1ReadPJ:     95.8, // paper Section 6, CACTI 4.2 @70nm, 32KB
		L2ReadPJ:     460,
		FilterReadPJ: 1.95, // paper Section 6, 2KB ERT bank
		CAMSearchPJ:  11,
		WriteFactor:  1.2,

		ControlPJ:   0.6,
		HopPJ:       1.2,
		OneWayPJ:    4.5,
		RoundTripPJ: 9.0,
		FlitPJ:      2.1,
		MemAccessPJ: 2100,

		LeakPJPerKBCycle:  0.0006,
		PowerDownLeakFrac: 0.08,

		SRAMAreaMM2PerKB: 0.013,
		CAMAreaMM2PerKB:  0.05,
		LinkAreaMM2:      0.02,
		EngineAreaMM2:    0.09,
	}
	lp := base
	lp.Name = "lp"
	lp.L1ReadPJ *= 1.15
	lp.L2ReadPJ *= 1.15
	lp.FilterReadPJ *= 1.15
	lp.CAMSearchPJ *= 1.15
	lp.LeakPJPerKBCycle *= 0.35
	lp.PowerDownLeakFrac = 0.04
	hp := base
	hp.Name = "hp"
	hp.L1ReadPJ *= 0.85
	hp.L2ReadPJ *= 0.85
	hp.FilterReadPJ *= 0.85
	hp.CAMSearchPJ *= 0.85
	hp.LeakPJPerKBCycle *= 2.4
	hp.PowerDownLeakFrac = 0.15
	return []Table{base, hp, lp}
}

// Lookup resolves a table name from the energy.table config axis; unknown
// names error.
func Lookup(name string) (*Table, error) {
	for _, t := range tables() {
		if t.Name == name {
			tt := t
			return &tt, nil
		}
	}
	return nil, fmt.Errorf("energy: unknown table %q (have %v)", name, Tables())
}

// Tables lists every valid energy.table value, in registry order.
func Tables() []string {
	ts := tables()
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name
	}
	return names
}

// structClass selects how a structure's per-access energy, leakage and area
// are derived from its capacity.
type structClass uint8

const (
	classCAM    structClass = iota // associatively searched queue
	classSRAM                      // RAM-indexed cache array
	classFilter                    // small hashed-RAM filter
	classWire                      // no storage array: fixed per-event energy
)

// structure is one energy-accounted hardware structure of a configuration.
type structure struct {
	name     string
	class    structClass
	kb       float64 // total capacity (leakage and area)
	searchKB float64 // per-access searched capacity (CAM: one bank)
	l2       bool    // classSRAM: use the L2 anchor
	banks    int     // >1: leakage splits over Result.BankActiveCycles
	links    int     // classWire: NoC links priced at LinkAreaMM2
	engines  int     // classWire: engines priced at EngineAreaMM2
}

// queueEntryBytes sizes one LSQ/SQM entry: a physical address, age tag and
// status bits.
const queueEntryBytes = 16

// structuresFor instantiates the structure set of a configuration. Presence
// mirrors what the simulator actually builds: the HL LQ disappears under
// SVW (the paper removes it), the LL queues / ERT / SQM exist only when the
// FMC runs the epoch-based core, the SSBF only under SVW.
func structuresFor(cfg *config.Config) []structure {
	fmc := cfg.Model == config.ModelFMC
	// Central on FMC replaces the epoch-based core with the idealised
	// window-sized CP queue, so the ELSQ structures exist only for the
	// ELSQ/SVW schemes.
	elsqCore := fmc && (cfg.LSQ == config.LSQELSQ || cfg.LSQ == config.LSQSVW)
	kbOf := func(entries int) float64 { return float64(entries) * queueEntryBytes / 1024 }

	sqEntries, lqEntries := cfg.HLSQSize, cfg.HLLQSize
	if cfg.LSQ == config.LSQCentral {
		sqEntries, lqEntries = cfg.WindowSize(), cfg.WindowSize()
	}
	out := []structure{{name: "hl_sq", class: classCAM, kb: kbOf(sqEntries), searchKB: kbOf(sqEntries)}}
	if cfg.LSQ != config.LSQSVW {
		out = append(out, structure{name: "hl_lq", class: classCAM, kb: kbOf(lqEntries), searchKB: kbOf(lqEntries)})
	}
	if elsqCore {
		perBank := kbOf(cfg.EpochMaxLoads + cfg.EpochMaxStores)
		out = append(out, structure{
			name: "ll_lsq", class: classCAM,
			kb: perBank * float64(cfg.NumEpochs), searchKB: perBank,
			banks: cfg.NumEpochs,
		})
		slots := cfg.L1.Lines()
		if cfg.ERT == config.ERTHash {
			slots = 1 << cfg.ERTHashBits
		}
		// Two tables (load and store), one NumEpochs-wide presence mask per
		// slot.
		out = append(out, structure{name: "ert", class: classFilter,
			kb: float64(slots) * 2 * float64(cfg.NumEpochs) / 8 / 1024})
		if cfg.SQM {
			out = append(out, structure{name: "sqm", class: classFilter,
				kb: kbOf(cfg.NumEpochs * cfg.EpochMaxStores)})
		}
	}
	if cfg.LSQ == config.LSQSVW {
		// One two-byte SSW entry per filter slot.
		out = append(out, structure{name: "ssbf", class: classFilter,
			kb: float64(uint64(1)<<cfg.SSBFBits) * 2 / 1024})
	}
	if fmc && cfg.Class != config.ClassReactive {
		// Execution-locality predictor table (internal/predict): one tagged
		// 8-byte entry per slot, SRAM-class like the other small filters.
		out = append(out, structure{name: "pred", class: classFilter,
			kb: float64(uint64(1)<<cfg.ClassTableBits) * 8 / 1024})
	}
	out = append(out,
		structure{name: "l1", class: classSRAM, kb: float64(cfg.L1.SizeBytes) / 1024},
		structure{name: "l2", class: classSRAM, kb: float64(cfg.L2.SizeBytes) / 1024, l2: true},
		structure{name: "mem_if", class: classWire},
	)
	noc := structure{name: "noc", class: classWire}
	if fmc {
		// A bidirectional mesh over the engines plus the two CP bus
		// directions.
		noc.links = 2*cfg.NumEpochs + 2
	}
	out = append(out, noc)
	if fmc {
		out = append(out, structure{name: "fmc", class: classWire, engines: cfg.NumEpochs})
	}
	return out
}

// accessPJ is the per-access read/search energy of a structure under a
// table: the class anchor scaled by sqrt of the accessed capacity ratio.
func accessPJ(t *Table, s *structure) float64 {
	switch s.class {
	case classCAM:
		return t.CAMSearchPJ * math.Sqrt(s.searchKB/CAMAnchorKB)
	case classFilter:
		return t.FilterReadPJ * math.Sqrt(s.kb/FilterAnchorKB)
	case classSRAM:
		if s.l2 {
			return t.L2ReadPJ * math.Sqrt(s.kb/L2AnchorKB)
		}
		return t.L1ReadPJ * math.Sqrt(s.kb/L1AnchorKB)
	}
	return 0
}

// eventPJ prices one event of kind k on structure s.
func eventPJ(t *Table, s *structure, k stats.Kind) float64 {
	switch k {
	case stats.KindAccess:
		return accessPJ(t, s)
	case stats.KindWrite:
		return accessPJ(t, s) * t.WriteFactor
	case stats.KindControl:
		return t.ControlPJ
	case stats.KindHop:
		return t.HopPJ
	case stats.KindOneWay:
		return t.OneWayPJ
	case stats.KindRoundTrip:
		return t.RoundTripPJ
	case stats.KindFlit:
		return t.FlitPJ
	case stats.KindMem:
		return t.MemAccessPJ
	}
	return 0
}

// StructureReport is the per-structure slice of a Report.
type StructureReport struct {
	// Name identifies the structure; Actions records the mapped event
	// counts that produced DynamicPJ.
	Name    string            `json:"name"`
	Actions map[string]uint64 `json:"actions,omitempty"`
	// DynamicPJ, LeakagePJ and AreaMM2 are the structure's estimates.
	// LeakagePJ covers the measured cycles; for the banked LL-LSQ it
	// applies the power-down residual to each bank's idle cycles.
	DynamicPJ float64 `json:"dynamic_pj"`
	LeakagePJ float64 `json:"leakage_pj"`
	AreaMM2   float64 `json:"area_mm2"`
}

// Report is the energy/area estimate of one simulation run.
type Report struct {
	// Table and Version identify the coefficient set used.
	Table   string `json:"table"`
	Version int    `json:"version"`
	// Structures holds one entry per instantiated structure, in a fixed
	// configuration-determined order.
	Structures []StructureReport `json:"structures"`
	// TotalDynamicPJ, TotalLeakagePJ and TotalPJ are the sums over
	// Structures (the accounting identity Check enforces); TotalAreaMM2 is
	// the area sum, a pure function of the configuration.
	TotalDynamicPJ float64 `json:"total_dynamic_pj"`
	TotalLeakagePJ float64 `json:"total_leakage_pj"`
	TotalPJ        float64 `json:"total_pj"`
	TotalAreaMM2   float64 `json:"total_area_mm2"`
	// PJPerInst normalises TotalPJ by committed instructions.
	PJPerInst float64 `json:"pj_per_inst"`
	// BankPowerDownFrac echoes the measured mean powered-down fraction of
	// the LL-LSQ banks (cpu.Result), the paper's Figure 11 statistic.
	BankPowerDownFrac float64 `json:"bank_power_down_frac"`
}

// Compute maps a finished run's activity through the configuration's energy
// table. It errors on an unknown table name and on unaccounted activity (an
// action with events for a structure the configuration does not build).
func Compute(cfg *config.Config, res *cpu.Result) (*Report, error) {
	t, err := Lookup(cfg.EnergyTable)
	if err != nil {
		return nil, err
	}
	structs := structuresFor(cfg)
	index := make(map[string]int, len(structs))
	for i := range structs {
		index[structs[i].name] = i
	}
	rep := &Report{Table: t.Name, Version: t.Version, Structures: make([]StructureReport, len(structs))}
	for i := range structs {
		rep.Structures[i].Name = structs[i].name
	}
	for e := range stats.NumEvents {
		a := e.Info()
		if a.Kind == stats.Unpriced {
			continue
		}
		n := res.Counters.Tally[e]
		i, ok := index[a.Structure]
		if !ok {
			if n != 0 {
				return nil, fmt.Errorf("energy: action %s counted %d events but structure %s is absent under %s",
					a.Name, n, a.Structure, cfg.Name())
			}
			continue
		}
		sr := &rep.Structures[i]
		if sr.Actions == nil {
			sr.Actions = make(map[string]uint64)
		}
		sr.Actions[a.Name] = n
		sr.DynamicPJ += float64(n) * eventPJ(t, &structs[i], a.Kind)
	}
	cycles := float64(res.Cycles)
	for i := range structs {
		s := &structs[i]
		sr := &rep.Structures[i]
		switch s.class {
		case classWire:
			sr.AreaMM2 = float64(s.links)*t.LinkAreaMM2 + float64(s.engines)*t.EngineAreaMM2
		case classCAM:
			sr.AreaMM2 = s.kb * t.CAMAreaMM2PerKB
		default:
			sr.AreaMM2 = s.kb * t.SRAMAreaMM2PerKB
		}
		if s.class == classWire {
			continue
		}
		if s.banks > 1 && len(res.BankActiveCycles) == s.banks {
			// Per-bank residency split: an idle (powered-down) bank leaks
			// only the drowsy residual.
			kbPerBank := s.kb / float64(s.banks)
			for _, active := range res.BankActiveCycles {
				a := float64(active)
				if a > cycles {
					a = cycles
				}
				sr.LeakagePJ += kbPerBank * t.LeakPJPerKBCycle * (a + t.PowerDownLeakFrac*(cycles-a))
			}
		} else {
			sr.LeakagePJ = s.kb * t.LeakPJPerKBCycle * cycles
		}
	}
	for i := range rep.Structures {
		rep.TotalDynamicPJ += rep.Structures[i].DynamicPJ
		rep.TotalLeakagePJ += rep.Structures[i].LeakagePJ
		rep.TotalAreaMM2 += rep.Structures[i].AreaMM2
	}
	rep.TotalPJ = rep.TotalDynamicPJ + rep.TotalLeakagePJ
	if res.Committed > 0 {
		rep.PJPerInst = rep.TotalPJ / float64(res.Committed)
	}
	rep.BankPowerDownFrac = res.BankPowerDownFrac
	return rep, nil
}

// Check enforces the report's accounting identities: every quantity finite
// and non-negative, each total equal to the sum over structures, and the
// grand total equal to dynamic plus leakage. Summation order matches
// Compute, so equality is exact up to a tiny relative epsilon kept for
// cross-architecture float safety.
func (r *Report) Check() error {
	ok := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 }
	var dyn, leak, area float64
	for i := range r.Structures {
		s := &r.Structures[i]
		if !ok(s.DynamicPJ) || !ok(s.LeakagePJ) || !ok(s.AreaMM2) {
			return fmt.Errorf("energy: structure %s has a negative or non-finite estimate (%g pJ / %g pJ / %g mm2)",
				s.Name, s.DynamicPJ, s.LeakagePJ, s.AreaMM2)
		}
		dyn += s.DynamicPJ
		leak += s.LeakagePJ
		area += s.AreaMM2
	}
	close := func(a, b float64) bool {
		d := math.Abs(a - b)
		return d <= 1e-6 || d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
	}
	switch {
	case !ok(r.TotalDynamicPJ) || !ok(r.TotalLeakagePJ) || !ok(r.TotalPJ) || !ok(r.TotalAreaMM2) || !ok(r.PJPerInst):
		return fmt.Errorf("energy: negative or non-finite total in report (table %s)", r.Table)
	case !close(r.TotalDynamicPJ, dyn):
		return fmt.Errorf("energy: dynamic total %g != structure sum %g", r.TotalDynamicPJ, dyn)
	case !close(r.TotalLeakagePJ, leak):
		return fmt.Errorf("energy: leakage total %g != structure sum %g", r.TotalLeakagePJ, leak)
	case !close(r.TotalAreaMM2, area):
		return fmt.Errorf("energy: area total %g != structure sum %g", r.TotalAreaMM2, area)
	case !close(r.TotalPJ, r.TotalDynamicPJ+r.TotalLeakagePJ):
		return fmt.Errorf("energy: total %g != dynamic %g + leakage %g", r.TotalPJ, r.TotalDynamicPJ, r.TotalLeakagePJ)
	case r.BankPowerDownFrac < 0 || r.BankPowerDownFrac > 1 || math.IsNaN(r.BankPowerDownFrac):
		return fmt.Errorf("energy: bank power-down fraction %g outside [0,1]", r.BankPowerDownFrac)
	}
	return nil
}

// Digest returns a short stable hex digest of the report (JSON form; map
// keys marshal sorted, so identical reports digest identically).
func (r *Report) Digest() string {
	buf, err := json.Marshal(r)
	if err != nil {
		// Report marshalling cannot fail (plain floats, strings, maps);
		// reaching here means the schema changed incompatibly.
		panic(err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}
