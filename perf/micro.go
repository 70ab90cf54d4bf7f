package main

import (
	"bytes"
	"flag"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/lsq"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/simrun"
	"repro/internal/trace"
	"repro/internal/workload"
)

// captureOps bounds the committed memory-op stream the microbenchmarks
// replay: enough for a few compaction rounds of the store index.
const captureOps = 1 << 14

// traceBlocks is the length of the in-memory trace the decoder
// microbenchmarks read: more blocks than a Trace keeps decoded, so cycling
// through them decodes on every call.
const traceBlocks = 10

// opLog keeps copies of the first captureOps committed memory ops (the
// pipeline model reuses the records it hands out).
type opLog struct{ ops []lsq.MemOp }

func (l *opLog) LoadCommitted(op *lsq.MemOp)  { l.add(op) }
func (l *opLog) StoreCommitted(op *lsq.MemOp) { l.add(op) }
func (l *opLog) add(op *lsq.MemOp) {
	if len(l.ops) < captureOps {
		l.ops = append(l.ops, *op)
	}
}

// micro times layer functions in isolation with testing.Benchmark, on
// inputs captured from the workload's first benchmark at the run's seed:
// its committed memory-op stream and the addresses in it.
func micro(in *instance, benchtime string) (map[string]float64, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, err
	}
	cfg := in.cfg
	prof := workload.SuiteOf(in.suite)[0] // paper-all leaves suite at its zero value, INT
	if in.paper {
		cfg = in.spec.cfg.WithBudget(in.opts.MaxInsts, in.opts.WarmupInsts)
	}
	log := &opLog{}
	out, err := simrun.Point{Config: cfg, Bench: prof.Name, Seed: in.seed, Observer: log}.Run(nil)
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	var loads, stores []lsq.MemOp
	for _, op := range log.ops {
		if op.Store {
			stores = append(stores, op)
		} else {
			loads = append(loads, op)
		}
	}
	if len(loads) == 0 || len(stores) == 0 {
		return nil, fmt.Errorf("capture: %s committed %d loads and %d stores", prof.Name, len(loads), len(stores))
	}
	var tbuf bytes.Buffer
	rec, err := trace.NewRecorder(&tbuf, prof.New(in.seed))
	if err == nil {
		err = rec.Record(traceBlocks * trace.DefaultBlockRecords)
	}
	if err == nil {
		err = rec.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	tr, err := trace.New(tbuf.Bytes())
	if err != nil {
		return nil, err
	}
	if err := tr.Verify(); err != nil {
		return nil, err
	}

	m := map[string]float64{
		"lsq.add_ns":            nsPerOp(benchStoreAdd(stores)),
		"lsq.candidates_ns":     nsPerOp(benchStoreQuery(stores, loads, false)),
		"lsq.unresolved_ns":     nsPerOp(benchStoreQuery(stores, loads, true)),
		"sched.reserve_ns":      nsPerOp(benchReserve(log.ops)),
		"sched.ring_push_ns":    nsPerOp(benchRingPush(log.ops)),
		"mem.access_ns":         nsPerOp(benchAccess(&cfg, log.ops)),
		"workload.next_ns":      nsPerOp(benchGenerator(prof, in.seed, false)),
		"workload.wrongpath_ns": nsPerOp(benchGenerator(prof, in.seed, true)),
		"trace.next_ns":         nsPerOp(benchTraceNext(tr)),
		"trace.block_us":        nsPerOp(benchTraceBlock(tr)) / 1e3,
		"predict.cachelevel_ns": nsPerOp(benchCacheLevel(cfg, loads)),
		"noc.route_ns":          nsPerOp(benchRoute(&cfg, log.ops)),
		"energy.compute_us":     nsPerOp(benchEnergy(&cfg, out)) / 1e3,
	}
	return m, nil
}

func nsPerOp(f func(b *testing.B)) float64 {
	r := testing.Benchmark(f)
	if r.N == 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// shifted returns the i-th op of an endless replay of ops: each lap moves
// sequence numbers and cycles past the previous lap, so time-horizon logic
// (store-index compaction, calendar rings) sees a stream that keeps going.
func shifted(ops []lsq.MemOp, i int) lsq.MemOp {
	first, last := ops[0], ops[len(ops)-1]
	lap := int64(i / len(ops))
	dt := lap * (last.Commit - first.Dispatch + 1)
	op := ops[i%len(ops)]
	op.Seq += uint64(lap) * (last.Seq - first.Seq + 1)
	op.Dispatch += dt
	op.AddrReady += dt
	op.DataReady += dt
	op.Issued += dt
	op.Done += dt
	op.Commit += dt
	return op
}

func benchStoreAdd(stores []lsq.MemOp) func(b *testing.B) {
	return func(b *testing.B) {
		ix := lsq.NewStoreIndex()
		i := 0
		for b.Loop() {
			op := ix.NewOp()
			*op = shifted(stores, i)
			ix.Add(op)
			i++
		}
	}
}

// benchStoreQuery times Candidates (or Unresolved) against an index holding
// the captured stores, for the last quarter of the captured loads: the
// index's compaction state is the one those loads saw.
func benchStoreQuery(stores, loads []lsq.MemOp, unresolved bool) func(b *testing.B) {
	loads = loads[len(loads)*3/4:]
	return func(b *testing.B) {
		ix := lsq.NewStoreIndex()
		for i := range stores {
			op := ix.NewOp()
			*op = stores[i]
			ix.Add(op)
		}
		i := 0
		for b.Loop() {
			ld := &loads[i%len(loads)]
			if unresolved {
				ix.Unresolved(ld, ld.Issued)
			} else {
				ix.Candidates(ld, ld.Issued)
			}
			i++
		}
	}
}

// benchReserve books a two-wide calendar at each op's dispatch cycle.
func benchReserve(ops []lsq.MemOp) func(b *testing.B) {
	return func(b *testing.B) {
		cal := sched.NewCalendar(2, 1<<14)
		i := 0
		for b.Loop() {
			cal.Reserve(shifted(ops, i).Dispatch)
			i++
		}
	}
}

// benchRingPush models a 64-entry queue released at each op's commit.
func benchRingPush(ops []lsq.MemOp) func(b *testing.B) {
	return func(b *testing.B) {
		r := sched.NewRing(64)
		i := 0
		for b.Loop() {
			r.FreeAt()
			r.Push(ops[i%len(ops)].Commit)
			i++
		}
	}
}

func benchAccess(cfg *config.Config, ops []lsq.MemOp) func(b *testing.B) {
	return func(b *testing.B) {
		h := mem.NewHierarchy(cfg)
		i := 0
		for b.Loop() {
			h.Access(ops[i%len(ops)].Addr)
			i++
		}
	}
}

func benchGenerator(prof workload.Profile, seed uint64, wrongPath bool) func(b *testing.B) {
	return func(b *testing.B) {
		g := prof.New(seed)
		var in isa.Inst
		for b.Loop() {
			if wrongPath {
				g.WrongPath(&in)
			} else {
				g.Next(&in)
			}
		}
	}
}

func benchTraceNext(t *trace.Trace) func(b *testing.B) {
	return func(b *testing.B) {
		n := t.Meta().Records
		var src *trace.Source
		var in isa.Inst
		i := uint64(0)
		for b.Loop() {
			if i%n == 0 {
				var err error
				if src, err = t.Source(); err != nil {
					b.Fatal(err)
				}
			}
			src.Next(&in)
			i++
		}
	}
}

func benchTraceBlock(t *trace.Trace) func(b *testing.B) {
	return func(b *testing.B) {
		i := 0
		for b.Loop() {
			if _, err := t.Block(i % traceBlocks); err != nil {
				b.Fatal(err)
			}
			i++
		}
	}
}

// benchCacheLevel runs the cache-level classifier's dispatch query and
// commit-time training for each captured load, with the level a
// hierarchy fed the same loads reports.
func benchCacheLevel(cfg config.Config, loads []lsq.MemOp) func(b *testing.B) {
	cfg.Class = config.ClassCacheLevel
	h := mem.NewHierarchy(&cfg)
	levels := make([]mem.Level, len(loads))
	lats := make([]int64, len(loads))
	insts := make([]isa.Inst, len(loads))
	for i, ld := range loads {
		l, lat := h.Access(ld.Addr)
		levels[i], lats[i] = l, int64(lat)
		insts[i] = isa.Inst{Seq: ld.Seq, Op: isa.OpLoad, Addr: ld.Addr, Size: ld.Size}
	}
	return func(b *testing.B) {
		c := predict.New(&cfg)
		i := 0
		for b.Loop() {
			k := i % len(loads)
			ld := &loads[k]
			q := predict.Query{In: &insts[k], Dispatch: ld.Dispatch, Ready: ld.AddrReady, AddrReady: ld.AddrReady}
			c.LowLocality(&q)
			c.ObserveLoad(ld.Addr, levels[k], lats[k])
			i++
		}
	}
}

// benchRoute sends a message across the paper's 4x4 contended mesh at each
// op's dispatch cycle.
func benchRoute(cfg *config.Config, ops []lsq.MemOp) func(b *testing.B) {
	return func(b *testing.B) {
		f := noc.NewContended(4, 4, cfg.MeshHop, cfg.BusOneWay, 1, nil)
		i := 0
		for b.Loop() {
			f.Route(i%16, (i*5+3)%16, shifted(ops, i).Dispatch)
			i++
		}
	}
}

func benchEnergy(cfg *config.Config, out *simrun.Outcome) func(b *testing.B) {
	return func(b *testing.B) {
		for b.Loop() {
			if _, err := energy.Compute(cfg, out.Result); err != nil {
				b.Fatal(err)
			}
		}
	}
}
