// Command elsqperf is the repository benchmark. It runs one workload of the
// ELSQ reproduction for a fixed time, checks every simulation output, and
// prints the end-to-end metrics — or, traced, the per-layer metrics — by
// name with units, ending with one JSON line:
//
//	{"correct": true, "attempted": 72, "failed": 0, "metrics": {"sim_mips": {"value": 2.61, "unit": "Minst/s"}, ...}}
//
// Build and run it from the repository root with perf/run.sh, which
// compiles the simulator from source into .bench_build:
//
//	bash perf/run.sh --workload int-live --seed 1 --seconds 30 --trace 0
//	bash perf/run.sh --workload fp-trace --trace 1   # per-layer metrics
//	bash perf/run.sh --workload all                  # every workload in turn
//
// A run makes its inputs from --seed (fp-trace records its traces first,
// untimed), then starts three child processes of itself one after the
// other. Each child sets the workload up from scratch, so set-up time,
// process-wide caches and peak RSS are measured cleanly, and then spends a
// third of --seconds on timed passes (paper-all: one pass per child, and as
// many children as fit in --seconds); set-up-only children follow when
// set-up is cheap. setup_s and peak_rss_mb are medians over the children.
// A pass's time is the sum of the shortest times, over the passes, of its
// pieces: segments of a few milliseconds of each simulation (paper-all:
// each experiment). Suite children run on one P (GOMAXPROCS=1), paper-all's
// on two.
//
// Traced runs (--trace 1) profile every other pass with runtime/pprof,
// record spans around the benchmark's calls into the layers, sum the
// simulation counters, and run microbenchmarks of layer functions; the
// profiles and a Chrome trace-event file land in
// .bench_build/trace-out/<workload>-s<seed>. README.md lists the workloads,
// the metrics and which layer metric should move which end-to-end metric.
//
// The exit status is 0 when every operation was correct, 1 when any failed
// (the JSON line still says which), and 2 on a usage error.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRuns is how many child processes with timed passes one run makes;
// maxSetups bounds the set-ups a run measures, set-up-only children
// included.
const (
	setupRuns = 3
	maxSetups = 15
)

// buildDir is the run's scratch space inside the checkout (run.sh builds
// into it too); .gitignore names it.
const buildDir = ".bench_build"

// runTimeout stops a run whose children hang.
const runTimeout = 170 * time.Second

func main() {
	fs := flag.NewFlagSet("elsqperf", flag.ContinueOnError)
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "seconds of timed passes per run")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	child := fs.Int("child", -1, "internal: run as child process n of a run")
	traceDir := fs.String("traces", "", "internal: directory of the run's recorded traces")
	outDir := fs.String("out", "", "internal: directory for a traced run's profiles")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 || *seconds < 0 || *seconds == 0 && *child < 0 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "elsqperf: --trace takes 0 or 1, --seconds must be positive, and no arguments follow the flags")
		os.Exit(2)
	}
	traced := *traceFlag == 1
	var run []*spec
	if *name == "all" {
		run = specs
	} else {
		s, err := specByName(*name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "elsqperf: %v (have %s, or all)\n", err, strings.Join(names, ", "))
			os.Exit(2)
		}
		run = []*spec{s}
	}

	if *child >= 0 {
		o := childOpts{index: *child, share: time.Duration(*seconds * 1e9), traced: traced,
			traceDir: *traceDir, outDir: *outDir, scale: 1, benchtime: "100ms"}
		rep, err := runChild(run[0], *seed, o, func() { fmt.Println("ready") })
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(rep)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "elsqperf child %d: %v\n", *child, err)
			os.Exit(1)
		}
		return
	}

	ok := true
	for _, s := range run {
		sum, err := runWorkload(s, *seed, *seconds, traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "elsqperf %s: %v\n", s.name, err)
			os.Exit(1)
		}
		if err := sum.print(os.Stdout, s, *seed, traced); err != nil {
			fmt.Fprintf(os.Stderr, "elsqperf: %v\n", err)
			os.Exit(1)
		}
		ok = ok && sum.failed == 0
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload makes the run's inputs, runs its children one at a time and
// summarizes them.
func runWorkload(s *spec, seed uint64, seconds float64, traced bool) (*summary, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	runStart := time.Now()
	parent := newTracer()
	var recordS float64
	if s.replay {
		end := parent.begin("trace.Record", s.name)
		err := s.recordTraces(tmp, seed, 1)
		end()
		if err != nil {
			return nil, err
		}
		recordS = time.Since(runStart).Seconds()
	}
	outDir := ""
	if traced {
		outDir = filepath.Join(buildDir, "trace-out", fmt.Sprintf("%s-s%d", s.name, seed))
		if err := os.RemoveAll(outDir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	var runs []childRun
	child := func(share float64) {
		r := spawn(ctx, exe, s.procs(), []string{"--child", strconv.Itoa(len(runs)), "--workload", s.name,
			"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.FormatFloat(share, 'g', -1, 64),
			"--trace", traceArg, "--traces", tmp, "--out", outDir})
		r.startNS -= runStart.UnixNano()
		runs = append(runs, r)
	}
	// A paper-all child runs a single pass, so its children go on while the
	// next one, as long as the average so far, still fits in the run.
	timed := time.Now()
	for len(runs) < setupRuns || s.paper && time.Since(timed).Seconds()*float64(len(runs)+1)/float64(len(runs)) <= seconds {
		child(seconds / setupRuns)
	}
	// Most set-ups are cheap next to the passes; set-up-only children, within
	// a tenth of the run's time, steady the set-up median.
	if !traced {
		var setupNS float64
		for _, r := range runs {
			setupNS += float64(r.setupNS) / float64(len(runs))
		}
		for range min(maxSetups-len(runs), int(seconds*1e8/max(setupNS, 1))) {
			child(0)
		}
	}
	var p *pin
	if want, ok := pins[s.name]; ok && seed == 1 {
		p = &want
	}
	sum := summarize(runs, p, traced, recordS)
	if traced {
		spans := [][]span{parent.spans}
		offsets := []int64{0}
		for _, r := range runs {
			if r.rep != nil {
				spans = append(spans, r.rep.Spans)
				offsets = append(offsets, r.startNS)
			}
		}
		path := filepath.Join(outDir, "spans.json")
		if err := writeChromeTrace(path, spans, offsets); err != nil {
			return nil, err
		}
		sum.notes = append(sum.notes, "profiles and spans in "+outDir)
	}
	return sum, nil
}

// spawn runs one child to completion on procs Ps: the child prints "ready"
// when its set-up is done and then its report as one JSON document.
func spawn(ctx context.Context, exe string, procs int, args []string) childRun {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{err: err}
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{err: err}
	}
	r := childRun{startNS: start.UnixNano()}
	br := bufio.NewReader(stdout)
	line, rerr := br.ReadString('\n')
	r.setupNS = time.Since(start).Nanoseconds()
	body, berr := io.ReadAll(br)
	werr := cmd.Wait()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.maxRSSKB = ru.Maxrss
	}
	switch {
	case werr != nil:
		r.err = fmt.Errorf("child: %w", werr)
	case rerr != nil || line != "ready\n":
		r.err = fmt.Errorf("child: no ready line (%v)", errors.Join(rerr, berr))
	case berr != nil:
		r.err = fmt.Errorf("child: %w", berr)
	default:
		r.rep = &report{}
		if err := json.Unmarshal(body, r.rep); err != nil {
			r.rep, r.err = nil, fmt.Errorf("child report: %w", err)
		}
	}
	return r
}

// print writes the human-readable lines and then the JSON result line.
func (sum *summary) print(w io.Writer, s *spec, seed uint64, traced bool) error {
	decl := endToEnd
	if traced {
		decl = perLayer
	}
	fmt.Fprintf(w, "elsqperf %s seed %d: %d operations, %d failed\n", s.name, seed, sum.attempted, sum.failed)
	for _, n := range sum.notes {
		fmt.Fprintln(w, "  "+n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range decl {
		// A metric goes unmeasured only when the child that measures it
		// failed; otherwise it is a bug in the benchmark.
		x, ok := sum.values[m.name]
		if !ok && sum.failed == 0 {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.name, x, m.unit)
		metrics[m.name] = value{x, m.unit}
	}
	if sum.failed == 0 && len(metrics) != len(sum.values) {
		return fmt.Errorf("measured %d metrics, declared %d", len(sum.values), len(metrics))
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{sum.failed == 0, sum.attempted, sum.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
