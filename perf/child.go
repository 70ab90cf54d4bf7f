package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// report is what one child process sends its parent.
type report struct {
	Passes []passRecord `json:"passes"`
	// The fields below are filled only in traced runs.
	Spans   []span            `json:"spans,omitempty"`
	Samples map[string]int64  `json:"samples,omitempty"` // CPU-profile samples per layer
	Counts  map[string]uint64 `json:"counts,omitempty"`  // result counters summed over the passes
	// Decoded and Spanned are the trace blocks the passes decoded and the
	// blocks they span (replay workloads).
	Decoded uint64 `json:"decoded,omitempty"`
	Spanned uint64 `json:"spanned,omitempty"`
	// WarmInsts is the functional warm-up the set-up's checkpoint builds ran.
	WarmInsts uint64 `json:"warm_insts,omitempty"`
	// Allocs, GCCPU and UsedCPU are the heap allocations and the GC and
	// total non-idle CPU seconds the runtime spent over the passes.
	Allocs  uint64             `json:"allocs,omitempty"`
	GCCPU   float64            `json:"gc_cpu,omitempty"`
	UsedCPU float64            `json:"used_cpu,omitempty"`
	Micro   map[string]float64 `json:"micro,omitempty"`
}

// childOpts configures one child's share of a run.
type childOpts struct {
	index int
	// share is the time the child's passes may take; it runs at least one,
	// unless share is 0, which asks for the set-up alone.
	share  time.Duration
	traced bool
	// traceDir holds the recorded traces of a replay workload.
	traceDir string
	// outDir receives the CPU profiles of a traced run ("" keeps them in
	// memory).
	outDir string
	// scale divides the workload's budgets; benchtime is the
	// testing.Benchmark time of each microbenchmark.
	scale     uint64
	benchtime string
}

// runChild is the body of one child process: set up the workload, call
// ready, then run timed passes until the share is used. A traced child
// profiles every other pass (alternating across children, so both kinds
// exist whenever a run has two passes) and child 0 also runs the
// microbenchmarks.
func runChild(s *spec, seed uint64, o childOpts, ready func()) (*report, error) {
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	end := tr.begin("setup", s.name)
	in, err := s.setup(seed, o.scale, o.traceDir, tr)
	end()
	if err != nil {
		return nil, err
	}
	ready()

	rep := &report{}
	if o.share == 0 {
		return rep, nil
	}
	decoded0, _, err := in.decodes()
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	start := time.Now()
	for p := 0; ; p++ {
		profiled := o.traced && (p+o.index)%2 == 1
		var prof bytes.Buffer
		if profiled {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
		}
		end := tr.begin("pass", fmt.Sprint(p))
		rec := in.pass()
		end()
		if profiled {
			pprof.StopCPUProfile()
			if err := rep.addProfile(prof.Bytes(), o.outDir, o.index, p); err != nil {
				return nil, err
			}
		}
		rec.Profiled = profiled
		rep.Passes = append(rep.Passes, rec)
		// experiments.All() keeps a process-wide result cache, so a second
		// paper-all pass in one process would only read it back.
		elapsed := time.Since(start)
		if s.paper || elapsed+elapsed/time.Duration(p+1) > o.share {
			break
		}
	}
	if !o.traced {
		return rep, nil
	}
	rt1 := readRuntime()
	rep.Allocs = rt1.allocs - rt0.allocs
	rep.GCCPU = rt1.gc - rt0.gc
	rep.UsedCPU = rt1.used - rt0.used
	decoded1, spanned, err := in.decodes()
	if err != nil {
		return nil, err
	}
	rep.Decoded, rep.Spanned = decoded1-decoded0, spanned*uint64(len(rep.Passes))
	rep.Counts = in.counts
	rep.WarmInsts = in.cfg.WarmupInsts * uint64(len(in.snaps))
	if o.index == 0 {
		if rep.Micro, err = micro(in, o.benchtime); err != nil {
			return nil, err
		}
	}
	rep.Spans = tr.spans
	return rep, nil
}

// addProfile folds one pass's CPU profile into the report and keeps the
// raw profile in outDir for go tool pprof.
func (r *report) addProfile(prof []byte, outDir string, child, pass int) error {
	folded, err := foldProfile(prof)
	if err != nil {
		return err
	}
	if r.Samples == nil {
		r.Samples = map[string]int64{}
	}
	for k, v := range folded {
		r.Samples[k] += v
	}
	if outDir == "" {
		return nil
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("cpu-c%d-p%d.pb.gz", child, pass)), prof, 0o644)
}

// runtimeStats are cumulative runtime counters.
type runtimeStats struct {
	allocs   uint64
	gc, used float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{
		allocs: s[0].Value.Uint64(),
		gc:     s[1].Value.Float64(),
		used:   s[2].Value.Float64() - s[3].Value.Float64(),
	}
}
