// Package cpu is the cycle-level timing model hosting the LSQ schemes: a
// 4-way out-of-order Cache Processor (64-entry ROB, 40+40 issue-queue
// entries, 2 cache ports) optionally coupled to the FMC Memory Processor
// (16 in-order 2-way memory engines, one epoch each) — Table 1 of the
// paper.
//
// The model is a deterministic program-order sweep with resource calendars:
// for each dynamic instruction, dispatch is bounded by fetch bandwidth and
// structure occupancy (rings), readiness follows register dataflow, issue
// reserves ports/width at the earliest free cycle, completion feeds
// dependents, and commit is in-order and width-limited. Mispredicted
// branches inject wrong-path instructions that occupy the pipeline, search
// the queues and pollute the caches until branch resolution. Low-locality
// classification follows the execution-locality rule: an instruction whose
// operands become ready more than MigrateThreshold cycles after dispatch
// (or a load that misses in the L2) migrates to the current epoch's memory
// engine.
package cpu

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fmc"
	"repro/internal/isa"
	"repro/internal/lsq"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/svw"
	"repro/internal/workload"
)

// calHorizon bounds the spread of reservation times within one calendar.
const calHorizon = 1 << 14

// calHorizonFor returns the calendar horizon for cfg: the default, widened
// until it comfortably covers the in-flight window for large epoch counts
// (the engine-scaling sweeps). The horizon only arms the calendar's
// anti-aliasing guard — it never changes where a reservation lands — so
// widening is result-neutral; at the default geometry it returns calHorizon
// and slab layouts are unchanged.
func calHorizonFor(cfg *config.Config) int {
	h := calHorizon
	for h < 4*cfg.WindowSize() {
		h <<= 1
	}
	return h
}

// meshDims returns the memory-engine mesh geometry for an engine count: the
// paper's 4x4 for the default 16 engines, a single row otherwise.
func meshDims(numEpochs int) (w, h int) {
	if numEpochs == 16 {
		return 4, 4
	}
	return numEpochs, 1
}

// fabricCalendars returns how many arena-carved reservation calendars the
// lane's interconnect fabric needs (0 for the analytic model).
func fabricCalendars(cfg *config.Config) int {
	if cfg.NoC != config.NoCContended {
		return 0
	}
	w, h := meshDims(cfg.NumEpochs)
	return noc.ContendedCalendars(w, h)
}

// Result carries everything an experiment reads out of one simulation.
type Result struct {
	// Bench and Config identify the run.
	Bench  string
	Suite  workload.Suite
	Config string
	// Committed is the number of committed instructions.
	Committed uint64
	// Cycles is the total execution time.
	Cycles int64
	// IPC is Committed/Cycles.
	IPC float64
	// Counters lists every event of the run with a non-zero count, by its
	// stats event-table name (Table 2 columns read "hl_lq", "hl_sq",
	// "ll_lq", "ll_sq", "ert", "ssbf_read"+"ssbf_write", "roundtrip" and
	// "l1_access"+"l2_access"+"mem_access").
	Counters *stats.Counters
	// LoadDist and StoreDist are the decode→address-calculation latency
	// histograms behind Figure 1 (30-cycle buckets).
	LoadDist, StoreDist *stats.Histogram
	// LLIdleFrac is the fraction of cycles with the LL-LSQ empty (Fig 11).
	LLIdleFrac float64
	// AvgEpochs is the mean number of allocated epochs over time.
	AvgEpochs float64
	// BankActiveCycles is the measured per-bank (memory-engine) busy-cycle
	// residency under the placement policy, and BankPowerDownFrac the mean
	// fraction of the run each bank could power down — the per-engine view
	// behind Figure 11. FMC only; both are excluded from the matrix
	// results digest (digestResults hashes a fixed list).
	BankActiveCycles  []int64
	BankPowerDownFrac float64
	// Activity is always empty: the events internal/energy prices are
	// listed in Counters.
	//
	// Deprecated: read Counters. Activity stays a non-nil empty view so
	// code that adds its Snapshot to Counters' keeps working.
	Activity *stats.Counters
}

// CommitObserver receives the committed-path memory-operation stream in
// program order, after each op's timing and forwarding provenance are final.
// It is the hook the differential oracle (internal/oracle) certifies load
// values through. The op pointer is valid only for the duration of the call
// — the pipeline model recycles the records — so implementations must copy
// whatever they keep. Wrong-path ops never reach the observer. When no
// observer is attached the hook costs one nil check per committed memory
// op and allocates nothing.
type CommitObserver interface {
	// LoadCommitted is called when a load commits. op carries the final
	// forwarding provenance (FwdSeq/FwdMask), the final data-cache read
	// cycle (ReadAt, covering partial-overlap waits, violation repairs and
	// SVW commit-time re-execution) and the commit cycle.
	LoadCommitted(op *lsq.MemOp)
	// StoreCommitted is called when a store commits; op.Commit is the cycle
	// its value becomes architecturally visible.
	StoreCommitted(op *lsq.MemOp)
}

// Sim is one simulation instance: a configuration bound to a workload.
type Sim struct {
	cfg    config.Config
	gen    workload.Source
	scheme lsq.Scheme
	hier   *mem.Hierarchy
	fab    noc.Fabric
	svwEng *svw.Engine
	epochs *fmc.Epochs

	regReady [isa.NumRegs]int64

	fetchCal   *sched.Calendar // fetch/decode slots
	cpIssueCal *sched.Calendar // CP issue width
	portsCal   *sched.Calendar // L1 data ports
	llPortsCal *sched.Calendar // MP-side L2 access ports
	commitCal  *sched.Calendar // commit width
	migCal     *sched.Calendar // HL->LL migration bandwidth

	robRing    *sched.Ring // CP ROB occupancy
	windowRing *sched.Ring // global in-flight cap (FMC)
	intIQ      *sched.Ring
	fpIQ       *sched.Ring
	lqRing     *sched.Ring // conventional LQ (OoO)
	sqRing     *sched.Ring // conventional SQ (OoO)

	storeIx *lsq.StoreIndex
	obs     CommitObserver

	// class is the execution-locality classifier (internal/predict) behind
	// the HL/LL migration decision; classQ is its lane-resident query
	// scratch, lifted to a field so the per-instruction interface call
	// never escapes anything to the heap.
	class  predict.Classifier
	classQ predict.Query

	nextFetchMin int64
	lastCommit   int64
	lastMigrate  int64
	migBlockMem  int64 // RSAC: memory refs may not migrate before this

	// warmed is set by RestoreWarmState: the hierarchy already carries the
	// warm-up image and gen is positioned past it, so Run skips the
	// functional warm-up phase.
	warmed bool

	committed   uint64
	wpSeq       uint64
	llBusyUntil int64
	llIdle      int64

	loadDist, storeDist *stats.Histogram

	// storesMigrate: stores move to the LL queues whenever the MP is
	// active (ELSQ organisations); the central queue buffers them itself.
	storesMigrate bool
	wrongPathCap  int

	// loadOp and wpOp are the reusable records for loads and wrong-path
	// memory ops: neither outlives its step (nothing retains them — the
	// StoreIndex holds only stores, and schemes keep no op pointers), so
	// one scratch value each makes the per-instruction path allocation-
	// free. Store records come from the StoreIndex's recycling pool
	// instead, because they stay searchable until compaction retires them.
	loadOp, wpOp lsq.MemOp

	// ev counts every event of the run: the scheme and the SVW engine count
	// into it too, and Lane.Finish adds the totals other layers keep.
	ev stats.Tally
}

// levelAccess and levelLoad name the events a timed hierarchy access and a
// committed load count, by the level that satisfied them.
var (
	levelAccess = [...]stats.Event{mem.LevelL1: stats.L1Access, mem.LevelL2: stats.L2Access, mem.LevelMem: stats.MemAccess}
	levelLoad   = [...]stats.Event{mem.LevelL1: stats.LoadL1, mem.LevelL2: stats.LoadL2, mem.LevelMem: stats.LoadMem}
)

// New builds a simulator for cfg running the given benchmark source.
func New(cfg config.Config, gen workload.Source) (*Sim, error) {
	return newSim(cfg, gen, nil)
}

// newSim is the shared constructor behind New and NewBatch: with a nil
// arena every structure is allocated privately (the scalar path); with an
// arena the hot arrays — calendar slots, ring times, cache lines, the
// StoreIndex bucket table and its MemOp pool — are carved from the batch's
// shared slabs.
func newSim(cfg config.Config, gen workload.Source, ar *laneArena) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:       cfg,
		gen:       gen,
		hier:      mem.NewHierarchyIn(&cfg, ar.lineArena()),
		storeIx:   ar.storeIndex(),
		loadDist:  stats.NewHistogram(30, 50),
		storeDist: stats.NewHistogram(30, 50),
	}
	s.class = ar.classifier(&cfg)
	// Interconnect fabric: analytic (the paper's contention-free model) or
	// contended, whose link calendars are carved from the batch arena like
	// the pipeline calendars below.
	w, h := meshDims(cfg.NumEpochs)
	hor := calHorizonFor(&cfg)
	if cfg.NoC == config.NoCContended {
		s.fab = noc.NewContended(w, h, cfg.MeshHop, cfg.BusOneWay, cfg.NoCLinkWidth,
			func(width int) *sched.Calendar { return ar.calendar(width, hor) })
	} else {
		s.fab = noc.NewAnalytic(w, h, cfg.MeshHop, cfg.BusOneWay)
	}

	// The epoch manager must exist before the scheme: the ELSQ resolves
	// virtual epochs to banks through the manager's placement record.
	if cfg.Model == config.ModelFMC {
		s.epochs = fmc.NewEpochs(&cfg, fmc.PlacerFor(&cfg, s.fab), s.fab, hor)
		s.wrongPathCap = 3 * cfg.ROBSize
	} else {
		s.wrongPathCap = cfg.ROBSize
	}
	var banks fmc.BankMap = fmc.HomeBanks(cfg.NumEpochs)
	if s.epochs != nil {
		banks = s.epochs
	}

	switch {
	case cfg.LSQ == config.LSQCentral:
		s.scheme = lsq.NewCentral(s.fab, &s.ev)
	case cfg.LSQ == config.LSQConventional:
		s.scheme = lsq.NewConventional(false, &s.ev)
	case cfg.LSQ == config.LSQSVW && cfg.Model == config.ModelOoO:
		s.scheme = lsq.NewConventional(true, &s.ev)
		s.svwEng = svw.New(cfg.SSBFBits, cfg.SVW, &s.ev)
	case cfg.LSQ == config.LSQSVW:
		s.scheme = core.New(&cfg, s.fab, s.hier.L1, banks, &s.ev, core.WithoutLoadQueue())
		s.svwEng = svw.New(cfg.SSBFBits, cfg.SVW, &s.ev)
		s.storesMigrate = true
	case cfg.LSQ == config.LSQELSQ:
		s.scheme = core.New(&cfg, s.fab, s.hier.L1, banks, &s.ev)
		s.storesMigrate = true
	default:
		return nil, fmt.Errorf("cpu: unsupported scheme %v on %v", cfg.LSQ, cfg.Model)
	}

	// Unresolved-store tracking soundness: any store evicted from the
	// StoreIndex's recent ring is at least ring-length/FetchWidth dispatch
	// cycles older than a querying load's issue; a matching late-address
	// slack keeps every possibly-unresolved store visible to Unresolved
	// (the no-unresolved-store filter input).
	s.storeIx.TuneLateSlack(cfg.FetchWidth)

	s.fetchCal = ar.calendar(cfg.FetchWidth, hor)
	s.cpIssueCal = ar.calendar(cfg.FetchWidth, hor)
	s.portsCal = ar.calendar(cfg.CachePorts, hor)
	s.llPortsCal = ar.calendar(cfg.CachePorts, hor)
	s.commitCal = ar.calendar(cfg.CommitWidth, hor)
	s.migCal = ar.calendar(cfg.FetchWidth, hor)

	caps := ringCapsFor(&cfg)
	s.robRing = ar.ring(caps[ringROB])
	s.intIQ = ar.ring(caps[ringIntIQ])
	s.fpIQ = ar.ring(caps[ringFpIQ])
	s.windowRing = ar.ring(caps[ringWindow])
	// High-locality queue occupancy: entries live from dispatch to
	// migration (FMC) or completion/commit. The central queue is unlimited.
	s.lqRing = ar.ring(caps[ringLQ])
	s.sqRing = ar.ring(caps[ringSQ])
	return s, nil
}

// Ring indices into ringCapsFor's capacity vector.
const (
	ringROB = iota
	ringIntIQ
	ringFpIQ
	ringWindow
	ringLQ
	ringSQ
	numRings
)

// numCalendars is how many pipeline resource calendars newSim builds per
// lane; a contended fabric adds fabricCalendars(cfg) more on top.
const numCalendars = 6

// ringCapsFor returns every occupancy ring's capacity under cfg, in
// construction order (non-positive = unlimited, no backing storage). It is
// the single source of truth newSim and the batch slab sizing share.
func ringCapsFor(cfg *config.Config) [numRings]int {
	caps := [numRings]int{
		ringROB:   cfg.ROBSize,
		ringIntIQ: cfg.IntIQ,
		ringFpIQ:  cfg.FpIQ,
	}
	if cfg.Model == config.ModelFMC {
		caps[ringWindow] = cfg.WindowSize()
	}
	if cfg.LSQ != config.LSQCentral {
		caps[ringLQ] = cfg.HLLQSize
		caps[ringSQ] = cfg.HLSQSize
	}
	return caps
}

// SetCommitObserver attaches obs to the committed memory-operation stream.
// It must be called before Run; pass nil to detach.
func (s *Sim) SetCommitObserver(obs CommitObserver) { s.obs = obs }

// RestoreWarmState primes the simulator from a checkpoint instead of a
// functional warm-up: hs must be the hierarchy image captured after exactly
// cfg.WarmupInsts functional instructions of this benchmark, and the
// workload source passed to New must already be positioned past them
// (workload.Snapshottable.Restore). Run then starts measuring immediately;
// results are bit-identical to a fresh run's.
func (s *Sim) RestoreWarmState(hs *mem.HierarchyState) error {
	if s.committed > 0 {
		return fmt.Errorf("cpu: cannot restore warm state into a running simulation")
	}
	if err := s.hier.SetState(hs); err != nil {
		return fmt.Errorf("cpu: %w", err)
	}
	s.warmed = true
	return nil
}

// Run simulates cfg.WarmupInsts instructions functionally (cache warm-up —
// the paper measures SimPoints of already-warm execution; a checkpoint
// restore via RestoreWarmState stands in for this phase), then cfg.MaxInsts
// committed instructions with full timing, and returns the result. With
// SampleIntervals > 1 the measured instructions are split into that many
// intervals separated by SampleBleedInsts of functional fast-forward, so
// the measurement spans several program phases.
func (s *Sim) Run() *Result {
	res, _ := s.run(nil)
	return res
}

// RunContext runs like Run but aborts promptly when ctx is cancelled,
// returning ctx's error and no result. Cancellation is checked between
// bounded instruction chunks (cancelChunk) during both the functional
// warm-up and the measured phase, so even a multi-million-instruction job
// frees its worker within a fraction of a second of cancellation. A run
// that completes is bit-identical to one produced by Run: the chunking
// only changes where the simulator looks at the clock, never what it
// simulates (Source.Warmup is contractually equivalent to the same number
// of Next calls regardless of how the count is split).
func (s *Sim) RunContext(ctx context.Context) (*Result, error) {
	res, ok := s.run(ctx.Done())
	if !ok {
		return nil, ctx.Err()
	}
	return res, nil
}

// cancelChunk is the number of instructions simulated between cancellation
// checks in RunContext. Large enough that the check is free relative to the
// work, small enough that cancellation latency stays in the milliseconds.
const cancelChunk = 1 << 16

// canceled reports whether done (a context's Done channel, possibly nil)
// has fired.
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// warm advances the committed path n instructions functionally. With a
// cancellation channel the advance is split into cancelChunk pieces —
// equivalent by the Source.Warmup contract — so a long warm-up can abort.
// It reports false if cancellation fired.
func (s *Sim) warm(n uint64, access func(addr uint64), done <-chan struct{}) bool {
	for done != nil && n > cancelChunk {
		s.gen.Warmup(cancelChunk, access)
		n -= cancelChunk
		if canceled(done) {
			return false
		}
	}
	s.gen.Warmup(n, access)
	return !canceled(done)
}

// run is the shared body of Run and RunContext, expressed over the same
// incremental Lane the batch engine drives — scalar and batched execution
// share one stepping implementation, which is what makes their bit-identity
// structural rather than merely tested. It reports ok=false (and a nil
// result) if done fired before the measured phase completed.
func (s *Sim) run(done <-chan struct{}) (res *Result, ok bool) {
	l := s.NewLane()
	if !l.Warm(done) {
		return nil, false
	}
	for {
		more, ok := l.Step(cancelChunk, done)
		if !ok {
			return nil, false
		}
		if !more {
			break
		}
	}
	return l.Finish(), true
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func (s *Sim) regReadyAt(r int16) int64 {
	if r == isa.NoReg {
		return 0
	}
	return s.regReady[r]
}

// step processes one committed-path instruction end to end.
func (s *Sim) step(in *isa.Inst) {
	isLoad := in.Op == isa.OpLoad
	isStore := in.Op == isa.OpStore
	isMem := isLoad || isStore

	// --- dispatch ---
	t0 := s.nextFetchMin
	t0 = max64(t0, s.robRing.FreeAt())
	t0 = max64(t0, s.windowRing.FreeAt())
	iq := s.intIQ
	if in.Op == isa.OpFpAlu || in.Op == isa.OpFpMul {
		iq = s.fpIQ
	}
	t0 = max64(t0, iq.FreeAt())
	if isLoad {
		t0 = max64(t0, s.lqRing.FreeAt())
	}
	if isStore {
		t0 = max64(t0, s.sqRing.FreeAt())
	}
	dispatch := s.fetchCal.Reserve(t0)

	// --- readiness ---
	r1 := max64(s.regReadyAt(in.Src1), dispatch+1)
	r2 := max64(s.regReadyAt(in.Src2), dispatch+1)
	ready := max64(r1, r2)
	addrReady := r1 // loads/stores: Src1 is the address source
	dataReady := r2 // stores: Src2 is the data source

	// --- execution-locality classification (internal/predict) ---
	// The classifier owns only the dispatch-time HL/LL decision; the RLAC
	// override below and the store ride-along are scheme constraints that
	// apply identically under every policy, so they stay here.
	llExec := false
	if s.cfg.Model == config.ModelFMC {
		s.classQ = predict.Query{In: in, Dispatch: dispatch, Ready: ready, AddrReady: addrReady}
		llExec = s.class.LowLocality(&s.classQ)
		if isLoad && llExec &&
			(s.cfg.Disamb == config.DisambRLAC || s.cfg.Disamb == config.DisambRSACLAC) {
			// Restricted LAC: the load must compute its address in the
			// HL-LSQ. It stays in the Cache Processor until the address
			// resolves and, being the migration divider, blocks younger
			// migration (the window fills behind it).
			llExec = false
			s.lastMigrate = max64(s.lastMigrate, addrReady)
			s.ev[stats.RLACStall]++
		}
	}
	llActive := s.llBusyUntil > dispatch
	migrates := llExec || (isStore && s.storesMigrate && llActive)

	// --- migration (HL -> LL epoch) ---
	var op *lsq.MemOp
	if isMem {
		if isStore {
			op = s.storeIx.NewOp()
		} else {
			op = &s.loadOp
			*op = lsq.MemOp{}
		}
		op.Seq, op.Store, op.Addr, op.Size = in.Seq, isStore, in.Addr, in.Size
		op.Dispatch, op.AddrReady = dispatch, addrReady
		op.Epoch, op.LowLoc = lsq.HLEpoch, llExec
		if isStore {
			op.DataReady = dataReady
		}
	}
	epochV := int64(-1)
	var migT int64
	if s.cfg.Model == config.ModelFMC && (migrates || (llExec && !isMem)) {
		mt := s.fab.BusOneWay(dispatch)
		mt = max64(mt, s.lastMigrate)
		if isMem {
			mt = max64(mt, s.migBlockMem)
		}
		v, enterAt, rel := s.epochs.Assign(llExec, isLoad && llExec, isStore && migrates, in.Seq, mt)
		if rel.OK {
			s.scheme.EpochCommitted(int(rel.V), rel.At)
		}
		mt = s.migCal.Reserve(max64(mt, enterAt))
		epochV = v
		s.lastMigrate = mt
		migT = mt
		if isMem {
			op.Epoch = int(v)
			op.MigrateAt = mt
			stall := s.scheme.Migrate(op, mt)
			if stall > 0 {
				migT += stall
				s.lastMigrate = migT
				s.ev[stats.MigrateStallCycles] += uint64(stall)
			}
			if op.AddrReady > migT {
				// Address resolves inside the LL-LSQ.
				if s.scheme.AddrKnownInLL(op, op.AddrReady) {
					// Line-ERT lock overflow: squash from this op.
					s.ev[stats.LLSquash]++
					s.nextFetchMin = max64(s.nextFetchMin, op.AddrReady+int64(s.cfg.MispredictPenalty))
				}
			}
			if isStore && op.AddrReady > migT &&
				(s.cfg.Disamb == config.DisambRSAC || s.cfg.Disamb == config.DisambRSACLAC) {
				// Restricted SAC: younger memory references may not
				// migrate until this store's address resolves.
				s.migBlockMem = max64(s.migBlockMem, op.AddrReady)
				s.ev[stats.RSACStall]++
			}
		}
	}

	// --- execute ---
	var done, issueAt int64
	switch in.Op {
	case isa.OpNop:
		done = dispatch + 1
		issueAt = dispatch + 1
	case isa.OpIntAlu, isa.OpIntMul, isa.OpFpAlu, isa.OpFpMul, isa.OpBranch:
		lat := int64(isa.Latency(in.Op))
		if llExec {
			issueAt = s.epochs.Issue(epochV, max64(ready, migT+1))
		} else {
			issueAt = s.cpIssueCal.Reserve(ready)
		}
		done = issueAt + lat
		if in.Op == isa.OpBranch && in.Mispred {
			s.ev[stats.Mispredict]++
			s.injectWrongPath(dispatch+1, done)
			s.nextFetchMin = max64(s.nextFetchMin, done+int64(s.cfg.MispredictPenalty))
		}
	case isa.OpLoad:
		done, issueAt = s.execLoad(op, llExec, epochV, migT)
	case isa.OpStore:
		done, issueAt = s.execStore(op, llExec, epochV, migT)
	}

	// A load that migrated after issue (L2 miss discovered in the HL-LSQ)
	// carries its epoch on the MemOp; fold it into the commit bookkeeping.
	if op != nil && op.Epoch != lsq.HLEpoch && epochV < 0 {
		epochV = int64(op.Epoch)
		migT = op.MigrateAt
	}

	// --- commit (in order, width-limited) ---
	ct := s.commitCal.Reserve(max64(done, s.lastCommit))
	if s.svwEng != nil && isLoad {
		if s.svwEng.LoadCommitting(op) {
			// Re-execute during commit: an extra data-cache access that
			// also delays every younger store's commit. The re-execution
			// re-reads every byte from the cache, which by now reflects
			// every older store (in-order commit), so the provenance
			// becomes a plain cache read at the re-execution cycle.
			port := s.portsCal.Reserve(ct)
			lvl := s.hier.Probe(op.Addr)
			lat := int64(s.hier.Latency(lvl))
			ct = port + lat
			s.ev[levelAccess[lvl]]++
			op.FwdMask = 0
			op.ReadAt = port
		}
	}
	s.lastCommit = ct
	s.committed++
	if isMem {
		op.Commit = ct
	}
	if isStore {
		// In-order memory update at commit.
		s.portsCal.Reserve(ct)
		lvl, _ := s.hier.Access(op.Addr)
		s.ev[levelAccess[lvl]]++
		if s.svwEng != nil {
			s.svwEng.StoreCommitted(op.Addr, op.Seq, ct)
		}
		s.storeIx.Add(op)
	}
	if s.obs != nil && isMem {
		if isStore {
			s.obs.StoreCommitted(op)
		} else {
			s.obs.LoadCommitted(op)
		}
	}
	if epochV >= 0 {
		s.epochs.Committed(epochV, in.Seq, ct)
	}

	// --- occupancy release ---
	robRelease := done
	if s.cfg.Model == config.ModelOoO {
		robRelease = ct // conventional in-order ROB release
	} else if migT > 0 {
		robRelease = migT // migrated ops free their CP slot at migration
	}
	s.robRing.Push(robRelease)
	s.windowRing.Push(ct)
	iqRelease := issueAt
	if migT > 0 && migT < iqRelease {
		iqRelease = migT
	}
	iq.Push(iqRelease)
	if isLoad {
		// A load's queue entry frees at migration (FMC) or once it has
		// executed and can release early (checkpointed recovery); the
		// conventional OoO holds it to commit.
		rel := max64(done, issueAt)
		if s.cfg.Model == config.ModelOoO {
			rel = ct
		} else if op.MigrateAt > 0 && op.MigrateAt < rel {
			rel = op.MigrateAt
		}
		s.lqRing.Push(rel)
	}
	if isStore {
		// A store buffers until commit unless it migrated to the LL-SQ.
		rel := ct
		if op.MigrateAt > 0 {
			rel = op.MigrateAt
		}
		s.sqRing.Push(rel)
	}

	// --- dataflow and statistics ---
	if in.Dst != isa.NoReg {
		s.regReady[in.Dst] = done
	}
	if isLoad {
		s.loadDist.Add(int(addrReady - dispatch))
	}
	if isStore {
		s.storeDist.Add(int(addrReady - dispatch))
	}
	// Memory-Processor activity: only miss-dependent work keeps the MP
	// awake (the paper's low-power criterion: "no cache misses have
	// occurred recently"). Stores that migrated purely for buffering ride
	// along and must not self-sustain the active phase.
	if epochV >= 0 && (llExec || (op != nil && op.LowLoc)) {
		if migT > s.llBusyUntil {
			s.llIdle += migT - s.llBusyUntil
		}
		s.llBusyUntil = max64(s.llBusyUntil, ct)
	}
}

// execLoad performs a load's queue search and memory access. It returns the
// cycle the value is available and the issue cycle.
func (s *Sim) execLoad(op *lsq.MemOp, llExec bool, epochV int64, migT int64) (done, issue int64) {
	if llExec {
		// The load issues from its memory engine (in-order, 2-way), then
		// accesses the memory hierarchy from the MP side.
		issue = s.epochs.Issue(epochV, max64(op.AddrReady, migT+1))
		issue = s.llPortsCal.Reserve(issue)
	} else {
		issue = s.portsCal.Reserve(op.AddrReady)
	}
	op.Issued = issue

	res := s.scheme.LoadIssue(op, s.storeIx, issue)
	if res.Squash {
		s.ev[stats.LLSquash]++
		s.nextFetchMin = max64(s.nextFetchMin, issue+int64(s.cfg.MispredictPenalty))
	}

	level, lat := s.hier.Access(op.Addr)
	s.ev[levelLoad[level]]++
	s.ev[levelAccess[level]]++
	// Train the locality classifier with the committed outcome (the sweep
	// is program-ordered, so this is commit-order training; wrong-path
	// loads never reach it).
	s.class.ObserveLoad(op.Addr, level, int64(lat))
	switch {
	case res.Forwarded:
		op.FwdSeq = res.Source.Seq
		op.FwdMask = isa.OverlapMask(res.Source.Addr, res.Source.Size, op.Addr, op.Size)
		op.ReadAt = issue
		done = max64(issue, res.DataAvailable) + 1
	case res.Partial:
		// Partially matching store: wait for it to commit, then read the
		// cache (squash-and-refetch-free variant of the Power4 rule). The
		// re-read observes every older store: stores commit in order, so
		// all of them are in the cache by the youngest one's commit.
		s.ev[stats.PartialForward]++
		op.ReadAt = max64(issue, res.PartialStore.Commit)
		done = op.ReadAt + int64(s.cfg.L1.LatencyCycles) + 1
	default:
		op.ReadAt = issue
		done = issue + res.ExtraLatency + int64(lat)
	}

	// Post-issue migration: a high-locality load that misses all the way to
	// memory moves to the LL-LSQ to wait for its data (Section 3.2).
	if s.cfg.Model == config.ModelFMC && !llExec && level == mem.LevelMem && epochV < 0 {
		mt := max64(s.fab.BusOneWay(issue), s.lastMigrate)
		mt = max64(mt, s.migBlockMem)
		v, enterAt, rel := s.epochs.Assign(false, true, false, op.Seq, mt)
		if rel.OK {
			s.scheme.EpochCommitted(int(rel.V), rel.At)
		}
		mt = s.migCal.Reserve(max64(mt, enterAt))
		s.lastMigrate = mt
		op.Epoch = int(v)
		op.MigrateAt = mt
		op.LowLoc = true
		s.scheme.Migrate(op, mt)
	}

	// True ordering violations: older overlapping stores whose addresses
	// resolved only after this load issued. Eager schemes squash at the
	// oldest such store's resolution and the re-executed load waits until
	// every older store address is known; SVW repairs at commit via
	// re-execution (modelled in step()). Every violating store is folded in
	// — stopping at the first would let a younger, later-resolving store
	// leave the load with stale data.
	cands := s.storeIx.CandidatesOracle(op, issue)
	var repairAt int64
	for _, st := range cands {
		if st.AddrReady > issue {
			if repairAt == 0 {
				s.ev[stats.Violation]++
				if s.svwEng == nil {
					// The squash triggers when the oldest violating store
					// (first in ascending age) resolves its address.
					s.nextFetchMin = max64(s.nextFetchMin, st.AddrReady+int64(s.cfg.MispredictPenalty))
				}
			}
			repairAt = max64(repairAt, max64(st.AddrReady, st.DataReady)+1)
		}
	}
	if repairAt > 0 {
		done = max64(done, repairAt)
		if s.svwEng == nil {
			// The re-executed load observes the youngest older overlapping
			// store: forward when it covers the load, otherwise wait for its
			// commit and re-read the cache (which then reflects every older
			// store). SVW loads keep their stale provenance here — the
			// commit-time re-execution is what repairs them.
			y := cands[len(cands)-1]
			if y.Covers(op) {
				op.FwdSeq, op.FwdMask = y.Seq, isa.FullMask(op.Size)
				done = max64(done, max64(repairAt, y.DataReady)+1)
			} else {
				op.FwdMask = 0
				op.ReadAt = max64(repairAt, y.Commit)
				done = max64(done, op.ReadAt+int64(s.cfg.L1.LatencyCycles)+1)
			}
		}
	}
	return done, issue
}

// execStore resolves a store's address (its LQ violation search) and data.
func (s *Sim) execStore(op *lsq.MemOp, llExec bool, epochV int64, migT int64) (done, issue int64) {
	if llExec {
		issue = s.epochs.Issue(epochV, max64(op.AddrReady, migT+1))
	} else {
		issue = s.cpIssueCal.Reserve(op.AddrReady)
	}
	op.Issued = issue
	s.scheme.StoreAddrReady(op, nil, issue)
	done = max64(issue, op.DataReady)
	return done, issue
}

// injectWrongPath streams wrong-path instructions from a mispredicted
// branch's fetch point until its resolution. They occupy the pipeline,
// search the queues and access the caches — the activity inflation the
// paper observes for aggressive speculation on SPEC INT — and are squashed
// at resolution.
func (s *Sim) injectWrongPath(start, resolve int64) {
	if resolve <= start {
		return
	}
	n := int64(s.cfg.FetchWidth) * (resolve - start)
	if n > int64(s.wrongPathCap) {
		n = int64(s.wrongPathCap)
	}
	var in isa.Inst
	for i := int64(0); i < n; i++ {
		s.gen.WrongPath(&in)
		d := start + i/int64(s.cfg.FetchWidth)
		s.robRing.Push(resolve)
		switch in.Op {
		case isa.OpLoad:
			wp := &s.wpOp
			*wp = lsq.MemOp{
				Seq: in.Seq, Addr: in.Addr, Size: in.Size,
				Dispatch: d, AddrReady: d + 1, Epoch: lsq.HLEpoch,
			}
			issue := s.portsCal.Reserve(d + 1)
			wp.Issued = issue
			s.scheme.LoadIssue(wp, s.storeIx, issue)
			lvl, _ := s.hier.Access(wp.Addr)
			s.ev[levelAccess[lvl]]++
			s.ev[stats.WrongPathLoad]++
		case isa.OpStore:
			wp := &s.wpOp
			*wp = lsq.MemOp{
				Seq: in.Seq, Store: true, Addr: in.Addr, Size: in.Size,
				Dispatch: d, AddrReady: d + 1, DataReady: d + 1,
				Epoch: lsq.HLEpoch, Issued: d + 1,
			}
			s.scheme.StoreAddrReady(wp, nil, d+1)
			s.ev[stats.WrongPathStore]++
		default:
			s.ev[stats.WrongPathOther]++
		}
	}
}
