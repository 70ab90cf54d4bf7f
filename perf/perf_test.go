package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json, the machine-readable declaration of the
// benchmark at the repository root.
type benchmarkFile struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []declared                   `json:"end_to_end"`
	PerLayer   []declared                   `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want command, paths, run_seconds, workloads, end_to_end, per_layer", len(keys))
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return &f
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesRunner checks BENCHMARK.json against the
// runner's own declarations: the same workloads, and the same metrics with
// the same units, directions and bounds, within the file format's limits.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the runner has %d", len(f.Workloads), len(specs))
	}
	for i, w := range f.Workloads {
		if w.Name != specs[i].name || w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: declared %q (why %q), runner has %q", i, w.Name, w.Why, specs[i].name)
		}
	}
	if len(f.EndToEnd) > 16 || len(f.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(f.EndToEnd), len(f.PerLayer))
	}
	seen := map[string]bool{}
	check := func(kind string, got []declared, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the runner %d", kind, len(got), len(want))
			return
		}
		for i, d := range got {
			w := want[i]
			if d.Name != w.name || d.Unit != w.unit || d.Better != w.better {
				t.Errorf("%s metric %d: declared %s [%s, %s], runner %s [%s, %s]", kind, i, d.Name, d.Unit, d.Better, w.name, w.unit, w.better)
			}
			if bounded != (d.Bound != nil) || bounded && (*d.Bound != w.bound || *d.Bound <= 0 || *d.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v, runner %v", kind, d.Name, d.Bound, w.bound)
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("metric name %q is malformed or repeated", d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
	for _, s := range specs {
		if !nameRE.MatchString(s.name) || seen[s.name] {
			t.Errorf("workload name %q is malformed or repeated", s.name)
		}
		seen[s.name] = true
	}
}

// runShort runs every child of one workload in-process at 1/100 of its
// budget, with one short pass each.
func runShort(t *testing.T, s *spec, traced bool) []childRun {
	t.Helper()
	dir := t.TempDir()
	if s.replay {
		if err := s.recordTraces(dir, 1, 100); err != nil {
			t.Fatal(err)
		}
	}
	runs := make([]childRun, setupRuns)
	for i := range runs {
		o := childOpts{index: i, share: time.Nanosecond, traced: traced, traceDir: dir, scale: 100, benchtime: "1x"}
		start := time.Now()
		rep, err := runChild(s, 1, o, func() {})
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = childRun{rep: rep, setupNS: time.Since(start).Nanoseconds(), maxRSSKB: 1024}
	}
	return runs
}

// emitted prints a summary and returns the metrics of its JSON line.
func emitted(t *testing.T, sum *summary, s *spec, traced bool) map[string]declared {
	t.Helper()
	var buf bytes.Buffer
	if err := sum.print(&buf, s, 1, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: correct %v, %d attempted, %d failed:\n%s", s.name, res.Correct, res.Attempted, res.Failed, buf.String())
	}
	out := map[string]declared{}
	for k, v := range res.Metrics {
		out[k] = declared{Name: k, Unit: v.Unit}
	}
	return out
}

// TestWorkloadsShort runs every workload, untraced and traced, at 1/100 of
// its budget: each must run without a failed operation and emit exactly the
// metrics BENCHMARK.json declares, with their units; a pin that the
// outputs do not reproduce must fail the run, and so must an output that
// differs from its first pass.
func TestWorkloadsShort(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				runs := runShort(t, s, traced)
				want := f.EndToEnd
				if traced {
					want = f.PerLayer
				}
				got := emitted(t, summarize(runs, nil, traced, 0), s, traced)
				if len(got) != len(want) {
					t.Errorf("traced=%v: emitted %d metrics, BENCHMARK.json declares %d", traced, len(got), len(want))
				}
				for _, d := range want {
					if g, ok := got[d.Name]; !ok || g.Unit != d.Unit {
						t.Errorf("traced=%v: metric %s emitted as %+v, declared unit %s", traced, d.Name, g, d.Unit)
					}
				}
				if traced {
					continue
				}
				first := runs[0].rep.Passes[0]
				good := pin{insts: first.Insts, cycles: first.Cycles, digest: first.Digest}
				if sum := summarize(runs, &good, false, 0); sum.failed != 0 {
					t.Errorf("the outputs' own pin failed %d operations: %v", sum.failed, sum.notes)
				}
				bad := good
				bad.cycles++
				if s.paper {
					bad.digest = strings.Repeat("0", 64)
				}
				if sum := summarize(runs, &bad, false, 0); sum.failed == 0 || sum.failed != sum.attempted {
					t.Errorf("a tampered pin failed %d of %d operations, want all", sum.failed, sum.attempted)
				}
				runs[1].rep.Passes[0].Ops[0].Digest = "differs"
				if sum := summarize(runs, nil, false, 0); sum.failed != 1 {
					t.Errorf("an output that differs from the first pass failed %d operations, want 1", sum.failed)
				}
			}
		})
	}
}

// TestOpTime checks the time estimate of an operation: the sum of each
// segment's shortest time over the passes, or the shortest run when the
// runs have no segments or disagree on how many.
func TestOpTime(t *testing.T) {
	for _, c := range []struct {
		runs []opRecord
		want float64
	}{
		{[]opRecord{{NS: 9, Segs: []int64{4, 5}}, {NS: 8, Segs: []int64{6, 2}}}, 6e-9},
		{[]opRecord{{NS: 9}, {NS: 7}, {NS: 8}}, 7e-9},
		{[]opRecord{{NS: 9, Segs: []int64{4, 5}}, {NS: 8, Segs: []int64{8}}}, 8e-9},
	} {
		if got := opTime(c.runs); got != c.want {
			t.Errorf("opTime(%+v) = %g, want %g", c.runs, got, c.want)
		}
	}
}

// TestReplayMatchesLive checks that fp-trace's traces reproduce live
// generation, which is what lets its seed-1 pin stand for the live run.
func TestReplayMatchesLive(t *testing.T) {
	s, err := specByName("fp-trace")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.recordTraces(dir, 3, 100); err != nil {
		t.Fatal(err)
	}
	live := *s
	live.replay = false
	var totals [2][2]uint64
	for i, sp := range []*spec{s, &live} {
		in, err := sp.setup(3, 100, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := in.pass()
		totals[i] = [2]uint64{p.Insts, p.Cycles}
	}
	if totals[0] != totals[1] || totals[0][0] == 0 {
		t.Errorf("replay gave (insts, cycles) %v, live %v", totals[0], totals[1])
	}
}

// TestFoldProfile folds a hand-built profile: a standard-library frame
// under trace.(*Trace).Block is charged to trace, an inlined xrand frame
// to workload, and a sample with no repro frame to runtime.
func TestFoldProfile(t *testing.T) {
	strs := []string{"", "compress/flate.(*decompressor).Read", "repro/internal/trace.(*Trace).Block",
		"repro/internal/cpu.(*Sim).step", "runtime.gcBgMarkWorker", "repro/internal/xrand.(*RNG).Uint64",
		"repro/internal/workload.(*Generator).Next"}
	var p []byte
	for i := 1; i < len(strs); i++ {
		p = pbBytes(p, profFunction, pbVarint(pbVarint(nil, funcID, uint64(i)), funcName, uint64(i)))
	}
	loc := func(id uint64, funcs ...uint64) {
		m := pbVarint(nil, locID, id)
		for _, f := range funcs {
			m = pbBytes(m, locLine, pbVarint(nil, lineFunction, f))
		}
		p = pbBytes(p, profLocation, m)
	}
	loc(1, 1)    // flate
	loc(2, 2)    // trace.Block
	loc(3, 3)    // cpu.step
	loc(4, 4)    // runtime
	loc(5, 5, 6) // xrand inlined into workload
	// Sample 1 packs its location ids; sample 2 writes one per field.
	var packed []byte
	for _, id := range []uint64{1, 2, 3} {
		packed = binary.AppendUvarint(packed, id)
	}
	p = pbBytes(p, profSample, pbVarint(pbBytes(nil, sampleLocation, packed), sampleValue, 7))
	p = pbBytes(p, profSample, pbVarint(pbVarint(nil, sampleLocation, 4), sampleValue, 2))
	p = pbBytes(p, profSample, pbVarint(pbVarint(pbVarint(nil, sampleLocation, 5), sampleLocation, 3), sampleValue, 1))
	for _, s := range strs {
		p = pbBytes(p, profStrings, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := foldProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"trace": 7, "runtime": 2, "workload": 1}
	if len(got) != len(want) {
		t.Errorf("fold = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("fold = %v, want %v", got, want)
		}
	}
	if _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Error("folding garbage succeeded")
	}
}

func pbVarint(b []byte, field int, v uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(field)<<3), v)
}

func pbBytes(b []byte, field int, data []byte) []byte {
	b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(field)<<3|2), uint64(len(data)))
	return append(b, data...)
}
