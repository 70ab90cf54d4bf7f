// Package config defines every tunable of the modelled processors and the
// defaults from Table 1 of the paper. Experiments derive variants from
// Default() rather than constructing configs from scratch, so each figure's
// sweep changes exactly the parameters the paper sweeps.
package config

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Model selects the host microarchitecture.
type Model uint8

const (
	// ModelOoO is the conventional speculative out-of-order processor with a
	// 64-entry ROB ("OoO-64" in the paper), i.e. FMC with the Memory
	// Processor disabled.
	ModelOoO Model = iota
	// ModelFMC is the Flexible MultiCore: Cache Processor + Memory Engines,
	// emulating a window of around 1500 in-flight instructions.
	ModelFMC
)

// String implements fmt.Stringer.
func (m Model) String() string {
	if m == ModelOoO {
		return "OoO-64"
	}
	return "FMC"
}

// LSQScheme selects the load/store-queue organisation under test.
type LSQScheme uint8

const (
	// LSQCentral is the idealised unlimited single-cycle centralized LSQ
	// located in the Cache Processor.
	LSQCentral LSQScheme = iota
	// LSQConventional is a finite age-indexed CAM LQ/SQ (the OoO-64 queue).
	LSQConventional
	// LSQELSQ is the paper's Epoch-based Load/Store Queue.
	LSQELSQ
	// LSQSVW removes the associative load queue and uses Store Vulnerability
	// Window re-execution instead.
	LSQSVW
)

// String implements fmt.Stringer.
func (s LSQScheme) String() string {
	switch s {
	case LSQCentral:
		return "central"
	case LSQConventional:
		return "conventional"
	case LSQELSQ:
		return "elsq"
	case LSQSVW:
		return "svw"
	default:
		return fmt.Sprintf("lsq(%d)", uint8(s))
	}
}

// ERTKind selects the global-disambiguation filter of the ELSQ.
type ERTKind uint8

const (
	// ERTLine is the L1-cache-line-based Epoch Resolution Table (requires
	// locking referenced lines in the L1).
	ERTLine ERTKind = iota
	// ERTHash is the address-hash (Bloom-style) ERT, decoupled from the L1.
	ERTHash
)

// String implements fmt.Stringer.
func (k ERTKind) String() string {
	if k == ERTLine {
		return "line"
	}
	return "hash"
}

// Disambiguation selects the restricted disambiguation model (Section 3.3).
type Disambiguation uint8

const (
	// DisambFull lets loads and stores compute addresses and disambiguate in
	// both locality levels.
	DisambFull Disambiguation = iota
	// DisambRSAC restricts store address calculation to the HL-LSQ: a store
	// with an unresolved address stalls migration of younger memory
	// references. Removes the Load-ERT.
	DisambRSAC
	// DisambRLAC restricts load address calculation to the HL-LSQ.
	DisambRLAC
	// DisambRSACLAC restricts both.
	DisambRSACLAC
)

// String implements fmt.Stringer.
func (d Disambiguation) String() string {
	switch d {
	case DisambFull:
		return "full"
	case DisambRSAC:
		return "rsac"
	case DisambRLAC:
		return "rlac"
	case DisambRSACLAC:
		return "rsac+rlac"
	default:
		return fmt.Sprintf("disamb(%d)", uint8(d))
	}
}

// NoCModel selects the interconnect timing model for the CP<->MP bus and
// the memory-engine mesh (noc.Fabric implementations).
type NoCModel uint8

const (
	// NoCAnalytic is the contention-free fixed-latency model: Manhattan
	// hops at MeshHop cycles each and a fixed BusOneWay bus. The default,
	// and the model every legacy result was produced under.
	NoCAnalytic NoCModel = iota
	// NoCContended books CP<->MP bus slots and per-link mesh hops on
	// occupancy calendars (X-Y routing, NoCLinkWidth messages per link per
	// cycle), so concurrent traffic queues instead of passing through free.
	NoCContended
)

// String implements fmt.Stringer.
func (m NoCModel) String() string {
	if m == NoCAnalytic {
		return "analytic"
	}
	return "contended"
}

// PlacePolicy selects how virtual epochs are placed onto physical banks
// (memory engines) in the FMC.
type PlacePolicy uint8

const (
	// PlaceModN is the paper's interleaving: virtual epoch v occupies bank
	// v mod NumEpochs. The default.
	PlaceModN PlacePolicy = iota
	// PlaceLeastLoaded places each epoch on the bank that frees earliest,
	// breaking ties toward the bank nearest (in fabric hops) to the
	// previously opened epoch's bank.
	PlaceLeastLoaded
	// PlaceSteal keeps the mod-N home bank when it is free and otherwise
	// steals the free bank nearest to the previous epoch's bank, paying
	// the epoch-state migration bandwidth for the move.
	PlaceSteal
)

// String implements fmt.Stringer.
func (p PlacePolicy) String() string {
	switch p {
	case PlaceModN:
		return "modn"
	case PlaceLeastLoaded:
		return "leastloaded"
	case PlaceSteal:
		return "steal"
	default:
		return fmt.Sprintf("place(%d)", uint8(p))
	}
}

// ClassPolicy selects the execution-locality classifier that drives the
// HL->LL migration decision (internal/predict).
type ClassPolicy uint8

const (
	// ClassReactive is the paper's rule: an instruction whose operands
	// become ready more than MigrateThreshold cycles after dispatch is
	// classified low-locality, plus the post-issue migration of loads that
	// miss to memory. The default, and bit-identical to the simulator that
	// predated the prediction layer.
	ClassReactive ClassPolicy = iota
	// ClassCacheLevel augments the reactive rule with a tagged cache-level
	// history predictor: loads whose line is predicted to miss to memory
	// are classified low-locality already at dispatch, so migration
	// overlaps the miss instead of waiting for it to be discovered
	// (Jalili & Erez, arXiv 2103.14808).
	ClassCacheLevel
	// ClassDelayTrack augments the reactive rule with tracked per-line
	// load-delay estimates: a load migrates when its readiness slack plus
	// its predicted access delay exceeds the threshold (Diavastos &
	// Carlson, arXiv 2109.03112).
	ClassDelayTrack
)

// String implements fmt.Stringer.
func (p ClassPolicy) String() string {
	switch p {
	case ClassReactive:
		return "reactive"
	case ClassCacheLevel:
		return "cachelevel"
	case ClassDelayTrack:
		return "delaytrack"
	default:
		return fmt.Sprintf("class(%d)", uint8(p))
	}
}

// DefaultClassTableBits is the predictor-table index width the cachelevel
// and delaytrack policies use when Config.ClassTableBits is zero: 1024
// tagged entries of 8 bytes, an 8KB SRAM-class structure.
const DefaultClassTableBits = 10

// SVWVariant selects how SVW decides whether a forwarded load must
// re-execute (Section 5.6).
type SVWVariant uint8

const (
	// SVWBlind uses only the SSBF filter.
	SVWBlind SVWVariant = iota
	// SVWCheckStores additionally applies the no-unresolved-store filter.
	SVWCheckStores
)

// String implements fmt.Stringer.
func (v SVWVariant) String() string {
	if v == SVWBlind {
		return "blind"
	}
	return "checkstores"
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
	// LineBytes is the cache-line size.
	LineBytes int
	// LatencyCycles is the load-to-use hit latency.
	LatencyCycles int
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Lines returns the total number of lines.
func (c CacheConfig) Lines() int { return c.SizeBytes / c.LineBytes }

// Config carries every parameter of a simulation run. The zero value is not
// usable; start from Default().
type Config struct {
	// Model selects OoO-64 vs FMC.
	Model Model
	// LSQ selects the queue organisation.
	LSQ LSQScheme

	// FetchWidth is the fetch/decode bandwidth in instructions per cycle.
	FetchWidth int
	// CommitWidth is the maximum commits per cycle.
	CommitWidth int
	// ROBSize is the Cache Processor reorder-buffer size.
	ROBSize int
	// IntIQ and FpIQ are the CP issue-queue capacities.
	IntIQ, FpIQ int
	// IntRegs and FpRegs are the CP physical register counts.
	IntRegs, FpRegs int
	// CachePorts is the number of read/write L1 ports.
	CachePorts int

	// NumEpochs is the number of LL-LSQ epochs == memory engines ==
	// checkpoints (FMC only).
	NumEpochs int
	// EpochMaxInsts is the per-epoch instruction budget (all classes).
	EpochMaxInsts int
	// EpochMaxLoads and EpochMaxStores cap the per-ME load/store queues.
	EpochMaxLoads, EpochMaxStores int
	// MEIssueWidth is the in-order issue width of a memory engine.
	MEIssueWidth int
	// MEIQ is the memory-engine issue-queue size.
	MEIQ int

	// HLLQSize and HLSQSize are the high-locality load/store queue sizes.
	HLLQSize, HLSQSize int

	// L1, L2 describe the cache hierarchy.
	L1, L2 CacheConfig
	// MemLatency is the main-memory access time in cycles.
	MemLatency int

	// BusOneWay is the CP<->MP one-way trip latency in cycles.
	BusOneWay int
	// MeshHop is the per-hop latency between memory engines in cycles.
	MeshHop int

	// NoC selects the interconnect timing model (analytic by default).
	// The zero value encodes to nothing in the canonical form, so every
	// legacy sweep/checkpoint/golden key is unchanged.
	NoC NoCModel `json:",omitempty"`
	// NoCLinkWidth is the number of messages each mesh link (and each bus
	// direction) accepts per cycle under the contended model. 0 and 1 both
	// mean one message per cycle and encode identically; the field is
	// ignored (and normalised away) under the analytic model.
	NoCLinkWidth int `json:",omitempty"`
	// Place selects the epoch->bank placement policy (FMC only; mod-N by
	// default, encoded only when non-default).
	Place PlacePolicy `json:",omitempty"`
	// Class selects the execution-locality classification policy
	// (internal/predict; FMC only). The zero value is the reactive rule and
	// encodes to nothing in the canonical form, so every legacy
	// sweep/checkpoint/golden key is unchanged.
	Class ClassPolicy `json:",omitempty"`
	// ClassTableBits is the log2 entry count of the predictor table behind
	// the cachelevel and delaytrack policies. 0 means DefaultClassTableBits
	// and encodes identically; the field is ignored (and normalised away)
	// under the reactive policy.
	ClassTableBits int `json:",omitempty"`

	// ERT selects the global-disambiguation filter (ELSQ only).
	ERT ERTKind
	// ERTHashBits is the address-hash width for ERTHash.
	ERTHashBits int
	// SQM enables the Store Queue Mirror.
	SQM bool
	// Disamb selects the restricted disambiguation model.
	Disamb Disambiguation

	// SSBFBits is the Store Sequence Bloom Filter index width (SVW only).
	SSBFBits int
	// SVW selects Blind vs CheckStores.
	SVW SVWVariant

	// MigrateThreshold is the source-readiness slack (cycles beyond
	// dispatch) past which an instruction is classified low-locality and
	// migrated to a memory engine. It models the Virtual-ROB extraction
	// point: an instruction is pulled out when it reaches the head of the
	// partial ROB unexecuted, roughly the ROB drain time — long enough
	// that L2 hits and ordinary dependence chains execute in the Cache
	// Processor, short enough that memory misses (hundreds of cycles)
	// always migrate.
	MigrateThreshold int

	// MispredictPenalty is the front-end redirect cost after branch
	// resolution.
	MispredictPenalty int

	// MaxInsts is the number of committed instructions to measure per
	// benchmark (after warm-up).
	MaxInsts uint64
	// SampleIntervals, when above 1, splits MaxInsts into that many
	// SimPoint-style measured intervals: between intervals the simulator
	// fast-forwards SampleBleedInsts committed instructions functionally
	// (memory references keep warming the caches, nothing is timed), so the
	// measurement samples several program phases instead of one contiguous
	// region — the paper's multi-SimPoint methodology. 0 and 1 both mean a
	// single contiguous measured region and encode identically (the fields
	// are omitted from the canonical form when unset, so legacy configs
	// keep their cache identity). MaxInsts is split as evenly as possible,
	// with the first interval absorbing the remainder; every reported
	// metric still covers exactly MaxInsts committed instructions.
	SampleIntervals int `json:",omitempty"`
	// SampleBleedInsts is the per-gap functional fast-forward described
	// above (ignored unless SampleIntervals > 1).
	SampleBleedInsts uint64 `json:",omitempty"`

	// TracePath, when set, drives the simulation from the recorded .elt
	// trace at this path (internal/trace) instead of the live synthetic
	// generator: the committed-path stream is read from the file and the
	// wrong-path stream re-synthesised from the recorded initial state, so
	// results are bit-identical to the run the trace was recorded from. The
	// field is omitted from the canonical encoding when unset, so legacy
	// configs keep their cache identity.
	TracePath string `json:",omitempty"`
	// TraceDigest is the content digest of that trace (trace.Meta.Digest),
	// stamped by trace.Resolve. It — not the path — is what identifies a
	// trace-driven run: Canonical() drops TracePath whenever a digest is
	// present, so Hash(), WarmKey() and every cache key derived from them
	// are content-addressed (the same trace under two paths shares one
	// identity; a replaced file under one path does not).
	TraceDigest string `json:",omitempty"`

	// EnergyTable names the per-access energy/area coefficient table the
	// post-run energy model (internal/energy) maps activity counters
	// through. Empty means the default "base" table and is omitted from the
	// canonical encoding, so every legacy sweep/checkpoint/golden key is
	// unchanged. The table is observational only — it never feeds back into
	// timing — and its value is validated by internal/energy at report time
	// (config cannot depend on energy without a cycle).
	EnergyTable string `json:",omitempty"`

	// WarmupInsts is the number of committed instructions executed before
	// measurement starts, so caches and predictor-equivalent state reach
	// steady state (the paper measures SimPoints of already-warm
	// execution).
	//
	// Budget semantics: the simulator first advances WarmupInsts committed-
	// path instructions functionally — memory references touch the cache
	// hierarchy, nothing is timed — and then simulates exactly MaxInsts
	// instructions with full timing. Every reported metric (IPC, counters,
	// histograms, activity fractions) covers only the measured MaxInsts;
	// the warm-up affects results solely through the cache state it leaves
	// behind. Throughput reporting must therefore count WarmupInsts +
	// MaxInsts instructions of simulator work per run while metric
	// normalisation (e.g. stats.Per100M) uses committed == MaxInsts. The
	// two fields are independent: setting one never alters the other, and
	// assignment order is immaterial. Use WithBudget to set both
	// explicitly; SmokeBudget is the standard quick-evaluation point used
	// by the benchmark suites and the smoke-matrix digest gate.
	WarmupInsts uint64
}

// Standard instruction budgets. Smoke is large enough that the measured
// region runs entirely in cache-warm steady state (the warm-up spans the
// largest working-set period of the synthetic kernels) yet small enough for
// per-PR CI.
const (
	// SmokeMeasureInsts and SmokeWarmupInsts define the smoke budget.
	SmokeMeasureInsts uint64 = 30_000
	SmokeWarmupInsts  uint64 = 400_000
)

// WithBudget returns a copy of c measuring measure instructions after
// warmup warm-up instructions.
func (c Config) WithBudget(measure, warmup uint64) Config {
	c.MaxInsts = measure
	c.WarmupInsts = warmup
	return c
}

// SmokeBudget returns a copy of c at the standard smoke budget.
func (c Config) SmokeBudget() Config {
	return c.WithBudget(SmokeMeasureInsts, SmokeWarmupInsts)
}

// Default returns the Table 1 configuration: 4-way fetch, 64-entry CP ROB,
// 16 memory engines of 128 instructions (64 loads / 32 stores), 40-entry
// IQs, 96+96 registers, 2-ported 32KB 4-way L1 (1 cycle), 2MB 4-way L2
// (10 cycles), 400-cycle memory, 4-cycle one-way bus, 1 cycle/hop mesh.
func Default() Config {
	return Config{
		Model:             ModelFMC,
		LSQ:               LSQELSQ,
		FetchWidth:        4,
		CommitWidth:       4,
		ROBSize:           64,
		IntIQ:             40,
		FpIQ:              40,
		IntRegs:           96,
		FpRegs:            96,
		CachePorts:        2,
		NumEpochs:         16,
		EpochMaxInsts:     128,
		EpochMaxLoads:     64,
		EpochMaxStores:    32,
		MEIssueWidth:      2,
		MEIQ:              20,
		HLLQSize:          32,
		HLSQSize:          24,
		L1:                CacheConfig{SizeBytes: 32 << 10, Ways: 4, LineBytes: 32, LatencyCycles: 1},
		L2:                CacheConfig{SizeBytes: 2 << 20, Ways: 4, LineBytes: 32, LatencyCycles: 10},
		MemLatency:        400,
		BusOneWay:         4,
		MeshHop:           1,
		ERT:               ERTHash,
		ERTHashBits:       10,
		SQM:               true,
		Disamb:            DisambFull,
		SSBFBits:          10,
		SVW:               SVWBlind,
		MigrateThreshold:  48,
		MispredictPenalty: 8,
		MaxInsts:          200_000,
		WarmupInsts:       2_000_000,
	}
}

// OoO64 returns the conventional baseline: the FMC with the Memory Processor
// disabled — a 64-entry-ROB 4-way out-of-order core with a conventional
// finite LSQ matching the Cache Processor's parameters.
func OoO64() Config {
	c := Default()
	c.Model = ModelOoO
	c.LSQ = LSQConventional
	return c
}

// Validate reports the first configuration error found, or nil.
func (c *Config) Validate() error {
	switch {
	case c.FetchWidth <= 0:
		return fmt.Errorf("config: FetchWidth must be positive, got %d", c.FetchWidth)
	case c.CommitWidth <= 0:
		return fmt.Errorf("config: CommitWidth must be positive, got %d", c.CommitWidth)
	case c.ROBSize <= 0:
		return fmt.Errorf("config: ROBSize must be positive, got %d", c.ROBSize)
	case c.CachePorts <= 0:
		return fmt.Errorf("config: CachePorts must be positive, got %d", c.CachePorts)
	case c.Model == ModelFMC && c.NumEpochs <= 0:
		return fmt.Errorf("config: FMC needs NumEpochs > 0, got %d", c.NumEpochs)
	case c.Model == ModelFMC && c.NumEpochs > 128:
		return fmt.Errorf("config: FMC supports at most 128 epochs (the ERT epoch-mask width), got %d", c.NumEpochs)
	case c.Model == ModelFMC && c.EpochMaxInsts <= 0:
		return fmt.Errorf("config: FMC needs EpochMaxInsts > 0, got %d", c.EpochMaxInsts)
	case c.L1.SizeBytes <= 0 || c.L1.Ways <= 0 || c.L1.LineBytes <= 0:
		return fmt.Errorf("config: invalid L1 geometry %+v", c.L1)
	case c.L2.SizeBytes <= 0 || c.L2.Ways <= 0 || c.L2.LineBytes <= 0:
		return fmt.Errorf("config: invalid L2 geometry %+v", c.L2)
	case c.L1.Sets() == 0 || c.L1.Sets()&(c.L1.Sets()-1) != 0:
		return fmt.Errorf("config: L1 set count %d is not a positive power of two", c.L1.Sets())
	case c.L2.Sets() == 0 || c.L2.Sets()&(c.L2.Sets()-1) != 0:
		return fmt.Errorf("config: L2 set count %d is not a positive power of two", c.L2.Sets())
	case c.L1.LineBytes&(c.L1.LineBytes-1) != 0:
		return fmt.Errorf("config: L1 line size %d is not a power of two", c.L1.LineBytes)
	case c.L2.LineBytes&(c.L2.LineBytes-1) != 0:
		return fmt.Errorf("config: L2 line size %d is not a power of two", c.L2.LineBytes)
	case c.LSQ == LSQELSQ && c.ERT == ERTHash && (c.ERTHashBits < 1 || c.ERTHashBits > 24):
		return fmt.Errorf("config: ERTHashBits %d out of range [1,24]", c.ERTHashBits)
	case c.LSQ == LSQSVW && (c.SSBFBits < 1 || c.SSBFBits > 24):
		return fmt.Errorf("config: SSBFBits %d out of range [1,24]", c.SSBFBits)
	case c.NoCLinkWidth < 0 || c.NoCLinkWidth > 255:
		return fmt.Errorf("config: NoCLinkWidth %d out of range [0,255]", c.NoCLinkWidth)
	case c.ClassTableBits < 0 || c.ClassTableBits > 24:
		return fmt.Errorf("config: ClassTableBits %d out of range [0,24] (0 = default)", c.ClassTableBits)
	case c.MaxInsts == 0:
		return fmt.Errorf("config: MaxInsts must be positive")
	case c.SampleIntervals < 0:
		return fmt.Errorf("config: SampleIntervals must be non-negative, got %d", c.SampleIntervals)
	case c.SampleIntervals > 1 && c.MaxInsts < uint64(c.SampleIntervals):
		return fmt.Errorf("config: MaxInsts %d cannot be split into %d sample intervals", c.MaxInsts, c.SampleIntervals)
	}
	return nil
}

// Intervals returns the measured-interval count (at least 1) and the
// per-gap warm bleed the sampling fields denote.
func (c *Config) Intervals() (n int, bleed uint64) {
	if c.SampleIntervals > 1 {
		return c.SampleIntervals, c.SampleBleedInsts
	}
	return 1, 0
}

// WarmKey returns a stable digest of exactly the fields the functional
// warm-up depends on: cache geometry, the warm-up budget, and — for
// trace-driven configs — the trace identity. Two configs with equal
// WarmKey leave bit-identical post-warm-up state for a given (benchmark,
// seed) — latencies, queue sizes, the LSQ scheme, ERT geometry and the
// migrate threshold all shape timing only — so a checkpoint built under
// one serves every other (internal/ckpt keys its store with this). The
// trace identity matters because a trace-built checkpoint carries a
// replay-position snapshot rather than generator kernel state: it must
// never be resumed by a live-generator run, nor by a different trace.
func (c *Config) WarmKey() string {
	h := sha256.New()
	fmt.Fprintf(h, "warm1|l1:%d/%d/%d|l2:%d/%d/%d|w:%d",
		c.L1.SizeBytes, c.L1.Ways, c.L1.LineBytes,
		c.L2.SizeBytes, c.L2.Ways, c.L2.LineBytes,
		c.WarmupInsts)
	if id := c.traceIdentity(); id != "" {
		fmt.Fprintf(h, "|tr:%s", id)
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

// traceIdentity is the string that identifies a trace-driven run: the
// content digest when resolved, the path as a fallback when not (callers
// that key caches should trace.Resolve first), empty for live generation.
func (c *Config) traceIdentity() string {
	if c.TraceDigest != "" {
		return c.TraceDigest
	}
	return c.TracePath
}

// ClassBits returns the effective predictor-table index width:
// ClassTableBits, or DefaultClassTableBits when unset.
func (c *Config) ClassBits() int {
	if c.ClassTableBits == 0 {
		return DefaultClassTableBits
	}
	return c.ClassTableBits
}

// Name returns a short human-readable identifier for the configuration, in
// the style of the paper's Table 2 row labels (e.g. "FMC-Hash-SQM",
// "OoO-64-SVW"). Non-reactive classification policies append a "+CLP" /
// "+DTP" marker on FMC configurations.
func (c *Config) Name() string {
	name := c.baseName()
	if c.Model == ModelFMC {
		switch c.Class {
		case ClassCacheLevel:
			name += "+CLP"
		case ClassDelayTrack:
			name += "+DTP"
		}
	}
	return name
}

// baseName is the classifier-free Table 2 row label.
func (c *Config) baseName() string {
	if c.Model == ModelOoO {
		if c.LSQ == LSQSVW {
			return "OoO-64-SVW"
		}
		return "OoO-64"
	}
	switch c.LSQ {
	case LSQCentral:
		return "FMC-Central"
	case LSQSVW:
		return "FMC-Hash-SVW"
	case LSQELSQ:
		name := "FMC-Line"
		if c.ERT == ERTHash {
			name = "FMC-Hash"
		}
		if c.Disamb == DisambRSAC {
			name += "-RSAC"
		} else if c.Disamb == DisambRLAC {
			name += "-RLAC"
		} else if c.Disamb == DisambRSACLAC {
			name += "-RSACLAC"
		}
		if c.SQM {
			name += "+SQM"
		}
		return name
	default:
		return fmt.Sprintf("FMC-%s", c.LSQ)
	}
}

// WindowSize returns the total in-flight instruction capacity of the model:
// ROB only for OoO, ROB plus all epochs for FMC (~1500 by default, hence the
// paper's "around 1500 in-flight instructions").
func (c *Config) WindowSize() int {
	if c.Model == ModelOoO {
		return c.ROBSize
	}
	return c.ROBSize + c.NumEpochs*c.EpochMaxInsts
}
