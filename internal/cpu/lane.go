package cpu

import (
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/noc"
	"repro/internal/stats"
)

// Lane drives one simulation incrementally: the same warm-up, sampled
// measurement intervals and finalization that Run performs in one call,
// decomposed into resumable pieces so a batch driver can interleave many
// lanes' progress. The sequence of workload-source and pipeline operations a
// Lane performs is exactly Run's — interleaving changes only which lane the
// host CPU works on, never what any lane simulates — so a Lane's Result is
// bit-identical to Run's on the same Sim.
//
// Lifecycle: NewLane, Warm once, Step until it reports no more work, then
// Finish exactly once.
type Lane struct {
	s *Sim

	// in is the lane-resident instruction scratch Step decodes into (Run's
	// stack local, lifted so it survives across Step calls).
	in isa.Inst

	warmAccess func(addr uint64)

	// Sampling plan (config.Intervals): measurement is split into intervals
	// of per instructions (the first absorbs the remainder, so target starts
	// at MaxInsts - per*(intervals-1)) separated by bleed functional
	// instructions.
	intervals  int
	bleed, per uint64
	target     uint64
	k          int
	warmedUp   bool
	finished   bool

	// fabAtMeasure is the fabric's traffic snapshot at measurement start;
	// Finish subtracts it so reported interconnect counters cover exactly
	// the measured region, never warm-up traffic.
	fabAtMeasure noc.Traffic
}

// NewLane wraps s for incremental driving. The Sim must not have been run.
func (s *Sim) NewLane() *Lane {
	l := &Lane{
		s:          s,
		warmAccess: func(addr uint64) { s.hier.Access(addr) },
	}
	intervals, bleed := s.cfg.Intervals()
	l.intervals = intervals
	l.bleed = bleed
	l.per = s.cfg.MaxInsts / uint64(intervals)
	l.target = s.cfg.MaxInsts - l.per*uint64(intervals-1) // first interval absorbs the remainder
	return l
}

// Warm performs the functional warm-up phase (a no-op when the Sim was
// checkpoint-restored). It reports false if done fired first.
func (l *Lane) Warm(done <-chan struct{}) bool {
	if l.warmedUp {
		return true
	}
	l.warmedUp = true
	if !l.s.warmed && !l.s.warm(l.s.cfg.WarmupInsts, l.warmAccess, done) {
		return false
	}
	// Measurement starts here: snapshot the fabric so Finish reports only
	// the measured region's traffic (the warm-up is purely functional
	// today, but the subtraction keeps that true by construction).
	l.fabAtMeasure = l.s.fab.Traffic()
	return true
}

// Step advances the measured phase by up to n committed instructions,
// running inter-interval functional bleeds as they come due. It returns
// more=false once the full measurement budget has committed (call Finish),
// and ok=false if done fired first (the lane is then unusable).
func (l *Lane) Step(n uint64, done <-chan struct{}) (more, ok bool) {
	s := l.s
	for n > 0 && !l.finished {
		if s.committed >= l.target {
			if l.k == l.intervals-1 {
				l.finished = true
				break
			}
			if !s.warm(l.bleed, l.warmAccess, done) {
				return false, false
			}
			l.k++
			l.target += l.per
			continue
		}
		limit := l.target
		if s.committed+n < limit {
			limit = s.committed + n
		}
		n -= limit - s.committed
		for s.committed < limit {
			s.gen.Next(&l.in)
			s.step(&l.in)
		}
		if canceled(done) {
			return false, false
		}
	}
	if !l.finished && s.committed >= l.target && l.k == l.intervals-1 {
		l.finished = true
	}
	return !l.finished, true
}

// Finish closes out the run and assembles the Result. It must be called
// exactly once, after Step has reported no more work.
func (l *Lane) Finish() *Result {
	if !l.finished {
		panic("cpu: Lane.Finish before the measurement budget completed")
	}
	s := l.s
	if s.epochs != nil {
		if rel := s.epochs.CloseAll(); rel.OK {
			s.scheme.EpochCommitted(int(rel.V), rel.At)
		}
	}
	cycles := s.lastCommit
	if cycles <= 0 {
		cycles = 1
	}
	if s.llBusyUntil < cycles {
		s.llIdle += cycles - s.llBusyUntil
	}
	res := &Result{
		Bench:     s.gen.Name(),
		Suite:     s.gen.Suite(),
		Config:    s.cfg.Name(),
		Committed: s.committed,
		Cycles:    cycles,
		IPC:       float64(s.committed) / float64(cycles),
		LoadDist:  s.loadDist,
		StoreDist: s.storeDist,
		Activity:  new(stats.Counters),
	}
	// The fabric, the epoch manager and the SSBF keep their own totals;
	// copy them into the tally alongside the events counted in place.
	ev := &s.ev
	fs := s.fab.Traffic().Sub(l.fabAtMeasure)
	ev[stats.NoCHops] = fs.Hops
	ev[stats.NoCOneWay] = fs.OneWays
	ev[stats.NoCRoundTrip] = fs.RoundTrips
	ev[stats.NoCMigrateFlit] = fs.MigrateFlits
	ev[stats.NoCLinkWait] = fs.LinkWaitCycles
	ev[stats.NoCBusWait] = fs.BusWaitCycles
	if s.svwEng != nil {
		ev[stats.SSBFRead] = s.svwEng.SSBFReads()
		ev[stats.SSBFWrite] = s.svwEng.SSBFWrites()
	}
	if s.cfg.Model == config.ModelFMC {
		ev[stats.EpochOpen] = s.epochs.Opened
		ev[stats.EpochSteal] = s.epochs.Steals
		ev[stats.EpochRelease] = s.epochs.Releases
		ev[stats.MEIssue] = s.epochs.Issues
		ev[stats.PlaceSteals] = s.epochs.Steals
		res.LLIdleFrac = float64(s.llIdle) / float64(cycles)
		// Mean allocated epochs over the cycles the MP is active (the
		// paper's "when the Memory Processor is active, not necessarily
		// all epoch queues are allocated" statistic).
		if busy := cycles - s.llIdle; busy > 0 {
			res.AvgEpochs = float64(s.epochs.ActiveCycleSum) / float64(busy)
		}
		// Per-bank residency for the Figure 11 power-down claim.
		ba := s.epochs.BankActive()
		res.BankActiveCycles = append([]int64(nil), ba...)
		var idle float64
		for _, a := range ba {
			idle += 1 - float64(a)/float64(cycles)
		}
		res.BankPowerDownFrac = idle / float64(len(ba))
	}
	s.class.Flush(ev)
	res.Counters = &stats.Counters{Tally: *ev}
	return res
}
