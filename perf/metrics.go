package main

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/experiments"
)

// metric declares one reported quantity. BENCHMARK.json repeats these
// declarations; TestBenchmarkJSONMatchesRunner keeps the two in step.
type metric struct {
	name, unit, better string
	// bound is the regression bound of an end-to-end metric, as a share of
	// the parent commit's median.
	bound float64
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. The times take the widest bound allowed: over ten seeds on a
// shared 2-vCPU host whose speed drifts with its neighbours' load, their
// run-to-run spread was 4-24% on the suites and 15-21% on paper-all, which
// can only be timed experiment by experiment; memory spread under 5%.
// setup_s is a median of whole set-ups; on paper-all it is a millisecond
// of process start-up.
var endToEnd = []metric{
	{"sim_mips", "Minst/s", "higher", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the metrics of a traced run, in report order.
var perLayer = func() []metric {
	var ms []metric
	for _, l := range layers {
		ms = append(ms, metric{name: l + ".self_frac", unit: "frac", better: "lower"})
	}
	add := func(name, unit, better string) { ms = append(ms, metric{name: name, unit: unit, better: better}) }
	for _, n := range []string{
		"lsq.add_ns", "lsq.candidates_ns", "lsq.unresolved_ns", "sched.reserve_ns", "sched.ring_push_ns",
		"mem.access_ns", "workload.next_ns", "workload.wrongpath_ns", "trace.next_ns",
		"predict.cachelevel_ns", "noc.route_ns", "cpu.host_ns_per_sim_cycle", "mem.warmup_ns_per_inst",
	} {
		add(n, "ns", "lower")
	}
	add("trace.block_us", "us", "lower")
	add("energy.compute_us", "us", "lower")
	for _, n := range []string{
		"lsq.hl_search_per_kinst", "lsq.ll_search_per_kinst", "cpu.wrongpath_per_kinst", "core.ert_per_kinst",
		"mem.l1_per_kinst", "mem.l2_per_kinst", "mem.mem_per_kinst", "noc.hops_per_kinst",
		"noc.wait_cycles_per_kinst", "fmc.epochs_per_kinst", "fmc.steals_per_kinst", "runtime.allocs_per_kinst",
	} {
		add(n, "1/kinst", "lower")
	}
	add("core.ert_false_pos_ratio", "frac", "lower")
	add("predict.accuracy", "frac", "higher")
	add("trace.decodes_per_block", "ratio", "lower")
	add("runtime.gc_cpu_frac", "frac", "lower")
	add("trace_overhead_frac", "frac", "lower")
	for _, n := range []string{"trace.open_s", "trace.record_s", "ckpt.build_s"} {
		add(n, "s", "lower")
	}
	for _, e := range experiments.All() {
		add("experiments."+e.ID+"_s", "s", "lower")
	}
	add("simrun.run_ms_p50", "ms", "lower")
	return ms
}()

// childRun is the parent's view of one child process.
type childRun struct {
	rep      *report
	err      error
	setupNS  int64 // from process start until the first pass could begin
	maxRSSKB int64 // the child's peak resident set
	startNS  int64 // process start, relative to the run's
}

// summary is the outcome of one run of a workload.
type summary struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
}

// summarize checks every operation of every pass and computes the run's
// metrics. An operation fails when it returned an error, when its digest
// differs from the first pass's, or, when pin is set, when its pass misses
// the pinned totals. A child that died counts as one failed operation.
func summarize(runs []childRun, pin *pin, traced bool, recordS float64) *summary {
	sum := &summary{values: map[string]float64{}}
	fail := func(format string, args ...any) {
		sum.failed++
		if sum.failed <= 5 {
			sum.notes = append(sum.notes, "FAIL "+fmt.Sprintf(format, args...))
		}
	}
	ref := map[string]string{}
	var names []string
	opRuns := map[string][]opRecord{}
	var insts, setups, rss []float64
	for i, r := range runs {
		if r.err != nil {
			sum.attempted++
			fail("child %d: %v", i, r.err)
			continue
		}
		setups = append(setups, float64(r.setupNS)/1e9)
		if len(r.rep.Passes) > 0 {
			rss = append(rss, float64(r.maxRSSKB)/1024)
		}
		for j, p := range r.rep.Passes {
			missesPin := pin != nil && !pin.matches(p)
			for _, op := range p.Ops {
				sum.attempted++
				want, seen := ref[op.Name]
				if !seen {
					ref[op.Name], want = op.Digest, op.Digest
					names = append(names, op.Name)
				}
				opRuns[op.Name] = append(opRuns[op.Name], op)
				switch {
				case op.Err != "":
					fail("child %d pass %d %s: %s", i, j, op.Name, op.Err)
				case op.Digest != want:
					fail("child %d pass %d %s: digest %s, first pass gave %s", i, j, op.Name, op.Digest, want)
				case missesPin:
					fail("child %d pass %d %s: pass totals (%d insts, %d cycles, digest %q) miss the seed-1 pin", i, j, op.Name, p.Insts, p.Cycles, p.Digest)
				}
			}
			insts = append(insts, float64(p.Insts))
		}
	}
	if traced {
		sum.layerMetrics(runs, recordS)
		return sum
	}
	// A pass's time is estimated operation by operation; opTime says how.
	var wall float64
	for _, n := range names {
		wall += opTime(opRuns[n])
	}
	sum.values["wall_s"] = wall
	sum.values["sim_mips"] = ratio(median(insts)/1e6, wall)
	sum.values["setup_s"] = median(setups)
	sum.values["peak_rss_mb"] = median(rss)
	sum.notes = append(sum.notes, fmt.Sprintf("%d set-ups, %d timed passes", len(setups), len(insts)))
	return sum
}

// layerMetrics fills the per-layer metrics of a traced run.
func (sum *summary) layerMetrics(runs []childRun, recordS float64) {
	v := sum.values
	samples := map[string]int64{}
	counts := map[string]uint64{}
	var totalSamples int64
	var insts, cycles, passNS, decoded, spanned, allocs, warmInsts uint64
	var gcCPU, usedCPU, buildNS float64
	var runMS []float64
	var names []string
	profiled, plain := map[string][]opRecord{}, map[string][]opRecord{}
	var builds, opens []float64
	expS := map[string][]float64{}
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		rep := r.rep
		for k, n := range rep.Samples {
			samples[k] += n
			totalSamples += n
		}
		for k, n := range rep.Counts {
			counts[k] += n
		}
		for _, p := range rep.Passes {
			insts += p.Insts
			cycles += p.Cycles
			passNS += uint64(p.WallNS)
			for _, op := range p.Ops {
				if _, seen := plain[op.Name]; !seen {
					names = append(names, op.Name)
					plain[op.Name] = nil
				}
				if p.Profiled {
					profiled[op.Name] = append(profiled[op.Name], op)
				} else {
					plain[op.Name] = append(plain[op.Name], op)
				}
			}
		}
		decoded += rep.Decoded
		spanned += rep.Spanned
		allocs += rep.Allocs
		gcCPU += rep.GCCPU
		usedCPU += rep.UsedCPU
		var build, open float64
		for _, s := range rep.Spans {
			switch s.Name {
			case "ckpt.Build":
				build += float64(s.Dur)
			case "trace.Resolve":
				open += float64(s.Dur)
			case "simrun.Point.Run":
				runMS = append(runMS, float64(s.Dur)/1e6)
			case "Experiment.Run":
				expS[s.Arg] = append(expS[s.Arg], float64(s.Dur)/1e9)
			}
		}
		builds = append(builds, build/1e9)
		opens = append(opens, open/1e9)
		buildNS += build
		warmInsts += rep.WarmInsts
		for k, x := range rep.Micro {
			v[k] = x
		}
	}
	for _, l := range layers {
		v[l+".self_frac"] = ratio(float64(samples[l]), float64(totalSamples))
	}
	kinst := float64(insts) / 1e3
	perK := func(names ...string) float64 {
		var n uint64
		for _, name := range names {
			n += counts[name]
		}
		return ratio(float64(n), kinst)
	}
	v["lsq.hl_search_per_kinst"] = perK("hl_lq", "hl_sq")
	v["lsq.ll_search_per_kinst"] = perK("ll_lq", "ll_sq")
	v["cpu.wrongpath_per_kinst"] = perK("wrongpath_load", "wrongpath_store", "wrongpath_other")
	v["core.ert_per_kinst"] = perK("ert")
	v["mem.l1_per_kinst"] = perK("l1_access")
	v["mem.l2_per_kinst"] = perK("l2_access")
	v["mem.mem_per_kinst"] = perK("mem_access")
	v["noc.hops_per_kinst"] = perK("noc_hops")
	v["noc.wait_cycles_per_kinst"] = perK("noc_link_wait", "noc_bus_wait")
	v["fmc.epochs_per_kinst"] = perK("epoch_open")
	v["fmc.steals_per_kinst"] = perK("place_steals")
	v["runtime.allocs_per_kinst"] = ratio(float64(allocs), kinst)
	v["core.ert_false_pos_ratio"] = ratio(float64(counts["ert_false_positive"]), float64(counts["ert"]))
	v["predict.accuracy"] = ratio(float64(counts["pred_hit"]), float64(counts["pred_hit"]+counts["pred_miss"]))
	v["cpu.host_ns_per_sim_cycle"] = ratio(float64(passNS), float64(cycles))
	v["trace.decodes_per_block"] = ratio(float64(decoded), float64(spanned))
	v["runtime.gc_cpu_frac"] = ratio(gcCPU, usedCPU)
	// Tracing overhead compares profiled with plain passes operation by
	// operation, as wall_s estimates a pass.
	var profNS, plainNS float64
	for _, n := range names {
		if len(profiled[n]) > 0 && len(plain[n]) > 0 {
			profNS += opTime(profiled[n])
			plainNS += opTime(plain[n])
		}
	}
	v["trace_overhead_frac"] = 0
	if plainNS > 0 {
		v["trace_overhead_frac"] = profNS/plainNS - 1
	}
	v["trace.open_s"] = median(opens)
	v["trace.record_s"] = recordS
	v["ckpt.build_s"] = median(builds)
	v["mem.warmup_ns_per_inst"] = ratio(buildNS, float64(warmInsts))
	for _, e := range experiments.All() {
		v["experiments."+e.ID+"_s"] = median(expS[e.ID])
	}
	v["simrun.run_ms_p50"] = median(runMS)
	sum.notes = append(sum.notes,
		fmt.Sprintf("%d profile samples, simrun.run_ms_p50 over %d simulations", totalSamples, len(runMS)))
}

// opTime estimates the seconds one operation takes from its runs in the
// passes of a run: the sum over its segments of each segment's shortest
// time, or the shortest run when it has no segments. Other tenants of the
// host slow it by up to 60%, in bursts that come and go within
// milliseconds and thicken for minutes at a time; nothing runs faster than
// the code allows, so the shortest time of a short piece of work follows
// the code, while a median, or the time of a whole pass, follows the
// neighbours.
func opTime(runs []opRecord) float64 {
	segs := len(runs[0].Segs)
	for _, r := range runs {
		if len(r.Segs) != segs {
			segs = 0
		}
	}
	if segs == 0 {
		ns := slices.MinFunc(runs, func(a, b opRecord) int { return cmp.Compare(a.NS, b.NS) }).NS
		return float64(ns) / 1e9
	}
	var ns int64
	for i := range segs {
		best := runs[0].Segs[i]
		for _, r := range runs[1:] {
			best = min(best, r.Segs[i])
		}
		ns += best
	}
	return float64(ns) / 1e9
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the median of xs, 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
