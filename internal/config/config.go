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

var modelNames = enumNames[Model]{"model", [][]string{
	ModelOoO: {"OoO-64", "ooo", "ooo64"},
	ModelFMC: {"FMC"},
}}

// String implements fmt.Stringer.
func (m Model) String() string { return modelNames.name(m) }

// MarshalText implements encoding.TextMarshaler.
func (m Model) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (m *Model) UnmarshalText(b []byte) error { return modelNames.unmarshal(m, b) }

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

var lsqNames = enumNames[LSQScheme]{"LSQ scheme", [][]string{
	LSQCentral:      {"central"},
	LSQConventional: {"conventional"},
	LSQELSQ:         {"elsq"},
	LSQSVW:          {"svw"},
}}

// String implements fmt.Stringer.
func (s LSQScheme) String() string { return lsqNames.name(s) }

// MarshalText implements encoding.TextMarshaler.
func (s LSQScheme) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *LSQScheme) UnmarshalText(b []byte) error { return lsqNames.unmarshal(s, b) }

// ERTKind selects the global-disambiguation filter of the ELSQ.
type ERTKind uint8

const (
	// ERTLine is the L1-cache-line-based Epoch Resolution Table (requires
	// locking referenced lines in the L1).
	ERTLine ERTKind = iota
	// ERTHash is the address-hash (Bloom-style) ERT, decoupled from the L1.
	ERTHash
)

var ertNames = enumNames[ERTKind]{"ERT kind", [][]string{
	ERTLine: {"line"},
	ERTHash: {"hash"},
}}

// String implements fmt.Stringer.
func (k ERTKind) String() string { return ertNames.name(k) }

// MarshalText implements encoding.TextMarshaler.
func (k ERTKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *ERTKind) UnmarshalText(b []byte) error { return ertNames.unmarshal(k, b) }

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

var disambNames = enumNames[Disambiguation]{"disambiguation", [][]string{
	DisambFull:    {"full"},
	DisambRSAC:    {"rsac"},
	DisambRLAC:    {"rlac"},
	DisambRSACLAC: {"rsac+rlac", "rsaclac"},
}}

// String implements fmt.Stringer.
func (d Disambiguation) String() string { return disambNames.name(d) }

// MarshalText implements encoding.TextMarshaler.
func (d Disambiguation) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (d *Disambiguation) UnmarshalText(b []byte) error { return disambNames.unmarshal(d, b) }

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

var nocNames = enumNames[NoCModel]{"NoC model", [][]string{
	NoCAnalytic:  {"analytic", "free"},
	NoCContended: {"contended"},
}}

// String implements fmt.Stringer.
func (m NoCModel) String() string { return nocNames.name(m) }

// MarshalText implements encoding.TextMarshaler.
func (m NoCModel) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (m *NoCModel) UnmarshalText(b []byte) error { return nocNames.unmarshal(m, b) }

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

var placeNames = enumNames[PlacePolicy]{"placement policy", [][]string{
	PlaceModN:        {"modn", "mod-n"},
	PlaceLeastLoaded: {"leastloaded", "least-loaded"},
	PlaceSteal:       {"steal"},
}}

// String implements fmt.Stringer.
func (p PlacePolicy) String() string { return placeNames.name(p) }

// MarshalText implements encoding.TextMarshaler.
func (p PlacePolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (p *PlacePolicy) UnmarshalText(b []byte) error { return placeNames.unmarshal(p, b) }

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

var classNames = enumNames[ClassPolicy]{"classification policy", [][]string{
	ClassReactive:   {"reactive"},
	ClassCacheLevel: {"cachelevel", "cache-level", "clp"},
	ClassDelayTrack: {"delaytrack", "delay-track", "dtp"},
}}

// String implements fmt.Stringer.
func (p ClassPolicy) String() string { return classNames.name(p) }

// MarshalText implements encoding.TextMarshaler.
func (p ClassPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (p *ClassPolicy) UnmarshalText(b []byte) error { return classNames.unmarshal(p, b) }

// SVWVariant selects how SVW decides whether a forwarded load must
// re-execute (Section 5.6).
type SVWVariant uint8

const (
	// SVWBlind uses only the SSBF filter.
	SVWBlind SVWVariant = iota
	// SVWCheckStores additionally applies the no-unresolved-store filter.
	SVWCheckStores
)

var svwNames = enumNames[SVWVariant]{"SVW variant", [][]string{
	SVWBlind:       {"blind"},
	SVWCheckStores: {"checkstores"},
}}

// String implements fmt.Stringer.
func (v SVWVariant) String() string { return svwNames.name(v) }

// MarshalText implements encoding.TextMarshaler.
func (v SVWVariant) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (v *SVWVariant) UnmarshalText(b []byte) error { return svwNames.unmarshal(v, b) }

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
	NoC NoCModel
	// NoCLinkWidth is the number of messages each mesh link (and each bus
	// direction) accepts per cycle under the contended model; the analytic
	// model ignores it.
	NoCLinkWidth int
	// Place selects the epoch->bank placement policy (FMC only; mod-N by
	// default).
	Place PlacePolicy
	// Class selects the execution-locality classification policy
	// (internal/predict; FMC only; the reactive rule by default).
	Class ClassPolicy
	// ClassTableBits is the log2 entry count of the predictor table behind
	// the cachelevel and delaytrack policies (10 by default: 1024 tagged
	// entries of 8 bytes, an 8KB SRAM-class structure); the reactive policy
	// ignores it.
	ClassTableBits int

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
	// region — the paper's multi-SimPoint methodology. 1 (the default) is a
	// single contiguous measured region. MaxInsts is split as evenly as
	// possible, with the first interval absorbing the remainder; every
	// reported metric still covers exactly MaxInsts committed instructions.
	SampleIntervals int
	// SampleBleedInsts is the per-gap functional fast-forward described
	// above (ignored unless SampleIntervals > 1).
	SampleBleedInsts uint64

	// TracePath, when set, drives the simulation from the recorded .elt
	// trace at this path (internal/trace) instead of the live synthetic
	// generator: the committed-path stream is read from the file and the
	// wrong-path stream re-synthesised from the recorded initial state, so
	// results are bit-identical to the run the trace was recorded from.
	TracePath string
	// TraceDigest is the content digest of that trace (trace.Meta.Digest),
	// stamped by trace.Resolve. It — not the path — is what identifies a
	// trace-driven run: Canonical() drops TracePath whenever a digest is
	// present, so Hash(), WarmKey() and every cache key derived from them
	// are content-addressed (the same trace under two paths shares one
	// identity; a replaced file under one path does not).
	TraceDigest string

	// EnergyTable names the per-access energy/area coefficient table the
	// post-run energy model (internal/energy) maps activity counters
	// through ("base" by default). The table is observational only — it
	// never feeds back into timing — and its name is resolved by
	// internal/energy at report time (config cannot depend on energy
	// without a cycle).
	EnergyTable string

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
// IQs, 2-ported 32KB 4-way L1 (1 cycle), 2MB 4-way L2 (10 cycles),
// 400-cycle memory, 4-cycle one-way bus, 1 cycle/hop mesh. Table 1's 96+96
// registers and 20-entry memory-engine issue queues are not modelled, so
// they have no field.
func Default() Config {
	return Config{
		Model:             ModelFMC,
		LSQ:               LSQELSQ,
		FetchWidth:        4,
		CommitWidth:       4,
		ROBSize:           64,
		IntIQ:             40,
		FpIQ:              40,
		CachePorts:        2,
		NumEpochs:         16,
		EpochMaxInsts:     128,
		EpochMaxLoads:     64,
		EpochMaxStores:    32,
		MEIssueWidth:      2,
		HLLQSize:          32,
		HLSQSize:          24,
		L1:                CacheConfig{SizeBytes: 32 << 10, Ways: 4, LineBytes: 32, LatencyCycles: 1},
		L2:                CacheConfig{SizeBytes: 2 << 20, Ways: 4, LineBytes: 32, LatencyCycles: 10},
		MemLatency:        400,
		BusOneWay:         4,
		MeshHop:           1,
		NoCLinkWidth:      1,
		ClassTableBits:    10,
		ERT:               ERTHash,
		ERTHashBits:       10,
		SQM:               true,
		Disamb:            DisambFull,
		SSBFBits:          10,
		SVW:               SVWBlind,
		MigrateThreshold:  48,
		MispredictPenalty: 8,
		MaxInsts:          200_000,
		SampleIntervals:   1,
		EnergyTable:       "base",
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

// maxWidth bounds every per-cycle width and port count: the reservation
// calendars pack a cycle's booking count into 8 bits.
const maxWidth = 255

// maxWindow bounds the instruction window and every queue sized from the
// config (ROB, issue queues, HL queues), so the rings and the calendars
// whose horizon covers the window stay allocatable: 65536 in-flight
// instructions is 4x the 128-engine scaling sweep's window.
const maxWindow = 1 << 16

// Validate reports the first configuration error found, or nil.
func (c *Config) Validate() error {
	switch {
	case c.FetchWidth < 1 || c.FetchWidth > maxWidth:
		return fmt.Errorf("config: FetchWidth %d out of range [1,%d]", c.FetchWidth, maxWidth)
	case c.CommitWidth < 1 || c.CommitWidth > maxWidth:
		return fmt.Errorf("config: CommitWidth %d out of range [1,%d]", c.CommitWidth, maxWidth)
	case c.CachePorts < 1 || c.CachePorts > maxWidth:
		return fmt.Errorf("config: CachePorts %d out of range [1,%d]", c.CachePorts, maxWidth)
	case c.Model == ModelFMC && (c.MEIssueWidth < 1 || c.MEIssueWidth > maxWidth):
		return fmt.Errorf("config: MEIssueWidth %d out of range [1,%d]", c.MEIssueWidth, maxWidth)
	case c.ROBSize < 1 || c.ROBSize > maxWindow:
		return fmt.Errorf("config: ROBSize %d out of range [1,%d]", c.ROBSize, maxWindow)
	case max(c.IntIQ, c.FpIQ, c.HLLQSize, c.HLSQSize) > maxWindow:
		return fmt.Errorf("config: queue sizes IntIQ %d, FpIQ %d, HLLQSize %d, HLSQSize %d exceed %d entries",
			c.IntIQ, c.FpIQ, c.HLLQSize, c.HLSQSize, maxWindow)
	case c.BusOneWay < 0 || c.MeshHop < 0:
		return fmt.Errorf("config: BusOneWay %d and MeshHop %d must be non-negative", c.BusOneWay, c.MeshHop)
	case c.NumEpochs < 1 || c.NumEpochs > 128:
		// Every model builds the fabric, one mesh node per engine; 128 is
		// the ERT epoch-mask width.
		return fmt.Errorf("config: NumEpochs %d out of range [1,128]", c.NumEpochs)
	case c.Model == ModelFMC && (c.EpochMaxInsts < 1 || c.EpochMaxInsts > maxWindow):
		return fmt.Errorf("config: FMC needs EpochMaxInsts in [1,%d], got %d", maxWindow, c.EpochMaxInsts)
	case c.WindowSize() > maxWindow:
		return fmt.Errorf("config: window of %d instructions (ROBSize + NumEpochs*EpochMaxInsts) exceeds %d", c.WindowSize(), maxWindow)
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
	case c.Model == ModelOoO && c.LSQ == LSQELSQ:
		// The ELSQ's low-locality queues live in the memory engines.
		return fmt.Errorf("config: LSQ %v under Model %v: the ELSQ needs the FMC's memory engines", c.LSQ, c.Model)
	case c.LSQ == LSQELSQ && c.ERT == ERTHash && (c.ERTHashBits < 1 || c.ERTHashBits > 24):
		return fmt.Errorf("config: ERTHashBits %d out of range [1,24]", c.ERTHashBits)
	case c.LSQ == LSQSVW && (c.SSBFBits < 1 || c.SSBFBits > 24):
		return fmt.Errorf("config: SSBFBits %d out of range [1,24]", c.SSBFBits)
	case c.NoCLinkWidth < 1 || c.NoCLinkWidth > maxWidth:
		return fmt.Errorf("config: NoCLinkWidth %d out of range [1,%d]", c.NoCLinkWidth, maxWidth)
	case c.ClassTableBits < 1 || c.ClassTableBits > 24:
		return fmt.Errorf("config: ClassTableBits %d out of range [1,24]", c.ClassTableBits)
	case c.MaxInsts == 0:
		return fmt.Errorf("config: MaxInsts must be positive")
	case c.SampleIntervals < 1:
		return fmt.Errorf("config: SampleIntervals must be at least 1, got %d", c.SampleIntervals)
	case c.MaxInsts < uint64(c.SampleIntervals):
		return fmt.Errorf("config: MaxInsts %d cannot be split into %d sample intervals", c.MaxInsts, c.SampleIntervals)
	case c.EnergyTable == "":
		return fmt.Errorf("config: EnergyTable must name an energy table")
	}
	return nil
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
		if c.ERT == ERTLine {
			return "FMC-Line-SVW"
		}
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
