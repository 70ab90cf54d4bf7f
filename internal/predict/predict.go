// Package predict hosts the execution-locality classification layer: the
// pluggable policy that decides, at dispatch, whether an instruction is
// high-locality (executes in the Cache Processor) or low-locality (migrates
// to a memory engine). The paper's rule — operand-readiness slack beyond
// MigrateThreshold, plus the post-issue migration of loads that miss to
// memory — is the reactive policy; the cachelevel and delaytrack policies
// predict the migration-worthy loads already at dispatch, the related-work
// refinements of Jalili & Erez (arXiv 2103.14808, cache-level prediction)
// and Diavastos & Carlson (arXiv 2109.03112, real-time load-delay tracking).
//
// Contracts the pipeline model (internal/cpu) relies on:
//
//   - The reactive policy is arithmetic-identical to the pre-layer rule, so
//     default configurations stay bit-identical (golden fixtures, bench
//     digests, sweep cache keys).
//   - Zero hot-path allocation: New sizes the table state once;
//     LowLocality and ObserveLoad never allocate.
//   - Scheme constraints stay in the caller: the RLAC override (a load that
//     must compute its address in the HL-LSQ) and the store ride-along
//     (stores buffering in the LL-SQ while the MP is active) are applied by
//     internal/cpu after LowLocality returns, identically for every policy.
//   - Training happens in commit order: the program-order sweep calls
//     LowLocality and then, for the same committed load, ObserveLoad with
//     the level its timed access was satisfied from. Wrong-path loads reach
//     neither hook. Classifier state starts empty at measurement start in
//     every driving mode (warm-up is functional), which is what makes live,
//     trace-replay and checkpoint-resume runs bit-identical.
package predict

import (
	"math/bits"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/stats"
)

// Query carries one instruction's dispatch-time classification inputs.
type Query struct {
	// In is the dispatched instruction (loads/stores carry the effective
	// address; there is no PC in the ISA model, so predictor tables index
	// by line address).
	In *isa.Inst
	// Dispatch is the dispatch cycle; Ready when both sources are ready;
	// AddrReady when the address source (Src1) is ready.
	Dispatch, Ready, AddrReady int64
}

// Classifier is one execution-locality policy instance, owned by a single
// simulation (none of the implementations are safe for concurrent use).
type Classifier interface {
	// LowLocality reports whether the instruction classifies low-locality
	// at dispatch. Called for every committed-path instruction of an FMC
	// configuration.
	LowLocality(q *Query) bool
	// ObserveLoad trains the policy with a committed load's outcome: the
	// hierarchy level that satisfied its timed access and that level's
	// latency. Called once per committed load, after the LowLocality call
	// for the same instruction.
	ObserveLoad(addr uint64, level mem.Level, latency int64)
	// Flush adds the policy's accuracy counts and its table reads and
	// writes (which internal/energy prices against the "pred" structure)
	// to ev. The reactive policy keeps no counts.
	Flush(ev *stats.Tally)
}

// tableWords returns how many uint64 words of predictor-table state the
// classifier for cfg needs (0 for the reactive policy and for non-FMC
// models).
func tableWords(cfg *config.Config) int {
	if cfg.Model != config.ModelFMC || cfg.Class == config.ClassReactive {
		return 0
	}
	return 1 << cfg.ClassTableBits
}

// New builds the classifier for cfg.
func New(cfg *config.Config) Classifier {
	thr := int64(cfg.MigrateThreshold)
	if cfg.Model != config.ModelFMC || cfg.Class == config.ClassReactive {
		return &reactive{threshold: thr}
	}
	n := tableWords(cfg)
	t := table{
		entries: make([]uint64, n),
		mask:    uint64(n - 1),
		shift:   lineShift(cfg.L1.LineBytes),
		idxBits: uint(cfg.ClassTableBits),
	}
	if cfg.Class == config.ClassCacheLevel {
		return &cachelevel{table: t, threshold: thr}
	}
	return &delaytrack{table: t, threshold: thr}
}

// lineShift converts an L1 line size to the address shift that yields the
// line index (rounded up for the non-power-of-two sizes Validate permits).
func lineShift(lineBytes int) uint {
	if lineBytes <= 1 {
		return 0
	}
	return uint(bits.Len64(uint64(lineBytes) - 1))
}

// reactive is the paper's rule, verbatim: readiness slack beyond the
// threshold (address readiness for loads). It keeps no state and emits no
// counters, which is what keeps default-config runs bit-identical to the
// pre-layer simulator.
type reactive struct {
	threshold int64
}

// LowLocality implements Classifier.
func (r *reactive) LowLocality(q *Query) bool {
	rel := q.Ready
	if q.In.Op == isa.OpLoad {
		rel = q.AddrReady
	}
	return rel-q.Dispatch > r.threshold
}

// ObserveLoad implements Classifier (no training state).
func (r *reactive) ObserveLoad(uint64, mem.Level, int64) {}

// Flush implements Classifier (no counts).
func (r *reactive) Flush(*stats.Tally) {}

// table is the shared tagged direct-mapped predictor array: one 64-bit word
// per entry holding a valid bit, a 32-bit line tag and a 16-bit payload the
// policy interprets (a saturating level counter for cachelevel, a delay
// estimate for delaytrack).
type table struct {
	entries []uint64
	mask    uint64
	shift   uint // address -> line index
	idxBits uint // line -> table index width

	// lastPred and lastCausedLL carry the most recent load's dispatch-time
	// prediction to its ObserveLoad call (the sweep is program-ordered, so
	// the pairing is exact).
	lastPred     bool
	lastCausedLL bool

	// ev counts the table's lookups and training updates and each trained
	// load's prediction outcome; Flush adds it to the simulation's tally.
	ev stats.Tally
}

const (
	entryValid = uint64(1) << 63
	tagMask    = (uint64(1) << 32) - 1
	payloadMax = uint64(1)<<16 - 1
)

// slot returns the table index and tag for an address.
func (t *table) slot(addr uint64) (idx uint64, tag uint64) {
	line := addr >> t.shift
	return line & t.mask, (line >> t.idxBits) & tagMask
}

// lookup returns the payload at addr's slot and whether the tag matched.
func (t *table) lookup(addr uint64) (payload uint64, ok bool) {
	idx, tag := t.slot(addr)
	e := t.entries[idx]
	if e&entryValid == 0 || (e>>16)&tagMask != tag {
		return 0, false
	}
	return e & payloadMax, true
}

// store writes a payload at addr's slot, claiming the entry for its tag.
func (t *table) store(addr uint64, payload uint64) {
	idx, tag := t.slot(addr)
	t.entries[idx] = entryValid | tag<<16 | payload&payloadMax
}

// Flush implements Classifier for the table policies.
func (t *table) Flush(ev *stats.Tally) {
	for e, n := range t.ev {
		ev[e] += n
	}
}

// score tallies the observed load's dispatch-time prediction against the
// level that satisfied it, and reports whether that level was memory.
func (t *table) score(level mem.Level) (wentMem bool) {
	wentMem = level == mem.LevelMem
	if t.lastPred == wentMem {
		t.ev[stats.PredHit]++
	} else {
		t.ev[stats.PredMiss]++
	}
	if t.lastCausedLL && !wentMem {
		t.ev[stats.PredFalseLL]++
	}
	return wentMem
}

// cachelevel predicts the hierarchy level that will satisfy each load from
// a per-line 2-bit saturating history of past levels, and classifies
// predicted memory-miss loads low-locality at dispatch — migration then
// overlaps the miss instead of starting when the HL-LSQ discovers it. The
// reactive rule stays in force as the baseline, so cachelevel's LL set is a
// superset of reactive's.
type cachelevel struct {
	table
	threshold int64
}

// LowLocality implements Classifier.
func (p *cachelevel) LowLocality(q *Query) bool {
	rel := q.Ready
	isLoad := q.In.Op == isa.OpLoad
	if isLoad {
		rel = q.AddrReady
	}
	base := rel-q.Dispatch > p.threshold
	if !isLoad {
		return base
	}
	p.ev[stats.PredRead]++
	sat, ok := p.lookup(q.In.Addr)
	predMem := ok && sat >= 2
	p.lastPred = predMem
	p.lastCausedLL = predMem && !base
	if p.lastCausedLL {
		p.ev[stats.PredLL]++
	}
	return base || predMem
}

// ObserveLoad implements Classifier: bump the line's saturating counter
// toward "memory" on a memory-level access, away otherwise.
func (p *cachelevel) ObserveLoad(addr uint64, level mem.Level, _ int64) {
	wentMem := p.score(level)
	sat, ok := p.lookup(addr)
	switch {
	case !ok:
		// Allocate weakly biased toward the observed outcome.
		if wentMem {
			sat = 2
		} else {
			sat = 1
		}
	case wentMem && sat < 3:
		sat++
	case !wentMem && sat > 0:
		sat--
	}
	p.ev[stats.PredWrite]++
	p.store(addr, sat)
}

// delaytrack keeps a per-line exponential moving average of observed load
// access latency and classifies a load low-locality when its readiness
// slack plus its predicted delay exceeds the migration threshold — the
// propagated-delay view of locality: a load whose own access is long
// belongs in a memory engine even when its address arrives promptly.
// Non-loads follow the reactive rule (their delays propagate through
// register readiness already).
type delaytrack struct {
	table
	threshold int64
}

// LowLocality implements Classifier.
func (p *delaytrack) LowLocality(q *Query) bool {
	rel := q.Ready
	isLoad := q.In.Op == isa.OpLoad
	if isLoad {
		rel = q.AddrReady
	}
	slack := rel - q.Dispatch
	base := slack > p.threshold
	if !isLoad {
		return base
	}
	p.ev[stats.PredRead]++
	est, _ := p.lookup(q.In.Addr)
	pred := slack+int64(est) > p.threshold
	p.lastPred = pred
	p.lastCausedLL = pred && !base
	if p.lastCausedLL {
		p.ev[stats.PredLL]++
	}
	return pred
}

// ObserveLoad implements Classifier: fold the observed latency into the
// line's delay estimate (3/4 old + 1/4 new, clamped to the payload width).
func (p *delaytrack) ObserveLoad(addr uint64, level mem.Level, latency int64) {
	p.score(level)
	if latency < 0 {
		latency = 0
	}
	est, ok := p.lookup(addr)
	next := uint64(latency)
	if ok {
		next = (3*est + uint64(latency)) / 4
	}
	if next > payloadMax {
		next = payloadMax
	}
	p.ev[stats.PredWrite]++
	p.store(addr, next)
}
