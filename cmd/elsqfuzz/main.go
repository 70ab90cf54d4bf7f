// Command elsqfuzz is the randomized differential-fuzz driver of the
// repository: it derives configuration points from the sweepable-field
// registry (geometry, scheme, budgets) crossed with randomized workload
// seeds, simulates each point with the sequential reference model
// (internal/oracle) attached, and fails loudly when any committed load
// observes bytes the sequential semantics forbid.
//
// Every point derives deterministically from a single 64-bit fuzz seed, so
// a reported failure reproduces from its seed alone. On failure the driver
// additionally minimises the point (drop sampling, drop warm-up, shrink the
// measured budget) and emits a self-contained repro: the minimised config
// as JSON plus the committed-path instruction stream as a portable .elt
// trace (internal/trace), so the failure replays bit-identically anywhere.
//
//	elsqfuzz -smoke                  # deterministic 60-second CI budget
//	elsqfuzz -duration 15m -out repros
//	elsqfuzz -points 5000 -seed 7    # fixed point count from seed 7
//	elsqfuzz -reseed 267550341       # re-run one seed, with minimisation
//
// The same point derivation backs the native fuzz target:
//
//	go test -fuzz=FuzzSim ./internal/oracle
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/oracle"
	"repro/internal/simrun"
	"repro/internal/trace"
	"repro/internal/workload"
)

// checkPoint runs one fuzz point with the differential oracle attached and
// returns the checker (never nil on a nil error). It also certifies the
// point's energy report: present under every fuzzed energy.table, with the
// accounting identity (totals == structure sums, all values finite and
// non-negative) intact.
func checkPoint(p oracle.FuzzPoint) (*oracle.Checker, error) {
	out, err := simrun.Point{Config: p.Config, Bench: p.Bench, Seed: p.Seed, Oracle: true}.Run(nil)
	if err != nil {
		return nil, err
	}
	if out.Energy == nil {
		return nil, fmt.Errorf("energy report missing from outcome")
	}
	if err := out.Energy.Check(); err != nil {
		return nil, fmt.Errorf("energy accounting identity violated: %w", err)
	}
	return out.Oracle, nil
}

func main() {
	smoke := flag.Bool("smoke", false, "deterministic CI budget: seed 1, 60s wall-clock cap")
	duration := flag.Duration("duration", 0, "wall-clock budget (0 = use -points)")
	points := flag.Int("points", 1000, "number of points when no -duration is set")
	seed := flag.Uint64("seed", 1, "first fuzz seed; points use consecutive seeds")
	reseed := flag.Uint64("reseed", 0, "re-run exactly one fuzz seed (0 = disabled)")
	out := flag.String("out", "fuzz-repros", "directory for minimised repro artifacts")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation workers")
	verbose := flag.Bool("v", false, "log every point")
	flag.Parse()

	if *smoke {
		*duration = 60 * time.Second
		*seed = 1
	}
	if *reseed != 0 {
		if !runOne(*reseed, *out, true) {
			os.Exit(1)
		}
		return
	}

	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}

	var (
		next     = *seed - 1 // atomic; each worker claims the next seed
		ran      uint64
		loads    uint64
		failures uint64
		mu       sync.Mutex
		wg       sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := atomic.AddUint64(&next, 1)
				if *duration > 0 && time.Now().After(deadline) {
					return
				}
				if *duration == 0 && s >= *seed+uint64(*points) {
					return
				}
				p := oracle.RandomPoint(s)
				ck, err := checkPoint(p)
				if err != nil {
					mu.Lock()
					fmt.Fprintf(os.Stderr, "seed %d: %s: %v\n", s, p.Label(), err)
					mu.Unlock()
					atomic.AddUint64(&failures, 1)
					continue
				}
				atomic.AddUint64(&ran, 1)
				atomic.AddUint64(&loads, ck.Loads())
				if cerr := ck.Err(); cerr != nil {
					atomic.AddUint64(&failures, 1)
					mu.Lock()
					fmt.Fprintf(os.Stderr, "VIOLATION seed %d: %s\n  %v\n", s, p.Label(), cerr)
					mu.Unlock()
					// Minimisation re-simulates many times; keep it outside
					// the output lock so other workers stay independent.
					runOne(s, *out, false)
				} else if *verbose {
					mu.Lock()
					fmt.Printf("seed %d ok: %s (%d loads)\n", s, p.Label(), ck.Loads())
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	fmt.Printf("elsqfuzz: %d points, %d loads certified, %d failure(s) in %s (%.0f points/s)\n",
		ran, loads, failures, elapsed.Round(time.Millisecond), float64(ran)/elapsed.Seconds())
	if failures > 0 {
		os.Exit(1)
	}
}

// repro is the on-disk failure artifact schema.
type repro struct {
	FuzzSeed   uint64        `json:"fuzz_seed"`
	Label      string        `json:"label"`
	Bench      string        `json:"bench"`
	Seed       uint64        `json:"seed"`
	Config     config.Config `json:"config"`
	TraceFile  string        `json:"trace_file"`
	Violations []string      `json:"violations"`
}

// runOne re-runs a single fuzz seed, minimises on failure and writes the
// repro artifacts. It returns true when the point certified clean.
func runOne(s uint64, out string, standalone bool) bool {
	p := oracle.RandomPoint(s)
	ck, err := checkPoint(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seed %d: %v\n", s, err)
		return false
	}
	if ck.Err() == nil {
		if standalone {
			fmt.Printf("seed %d ok: %s (%d loads certified)\n", s, p.Label(), ck.Loads())
		}
		return true
	}
	if standalone {
		fmt.Fprintf(os.Stderr, "VIOLATION seed %d: %s\n  %v\n", s, p.Label(), ck.Err())
	}
	min := minimise(p)
	var vs []string
	if mck, err := checkPoint(min); err == nil {
		for _, v := range mck.Violations() {
			vs = append(vs, v.String())
		}
	} else {
		vs = append(vs, fmt.Sprintf("re-run of minimised point failed: %v", err))
	}
	if err := emitRepro(s, min, vs, out); err != nil {
		fmt.Fprintf(os.Stderr, "seed %d: emit repro: %v\n", s, err)
	}
	return false
}

// minimise greedily shrinks a failing point while it keeps failing: drop
// sampled measurement, drop the warm-up, then halve the measured budget.
func minimise(p oracle.FuzzPoint) oracle.FuzzPoint {
	fails := func(q oracle.FuzzPoint) bool {
		ck, err := checkPoint(q)
		return err == nil && ck.Err() != nil
	}
	if q := p; q.Config.SampleIntervals > 1 {
		q.Config.SampleIntervals, q.Config.SampleBleedInsts = 1, 0
		if fails(q) {
			p = q
		}
	}
	if q := p; q.Config.WarmupInsts > 0 {
		q.Config.WarmupInsts = 0
		if fails(q) {
			p = q
		}
	}
	for p.Config.MaxInsts > 64 {
		q := p
		q.Config.MaxInsts /= 2
		if !fails(q) {
			break
		}
		p = q
	}
	return p
}

// emitRepro writes the minimised config JSON and the committed-path trace.
func emitRepro(s uint64, p oracle.FuzzPoint, violations []string, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	prof, err := workload.ByName(p.Bench)
	if err != nil {
		return err
	}
	tracePath := filepath.Join(out, fmt.Sprintf("fuzz-%d.elt", s))
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	rec, err := trace.NewRecorder(f, prof.New(p.Seed))
	if err != nil {
		f.Close()
		return err
	}
	n := p.Config.WarmupInsts + p.Config.MaxInsts + uint64(p.Config.SampleIntervals-1)*p.Config.SampleBleedInsts
	if err := rec.Record(n); err != nil {
		f.Close()
		return err
	}
	if err := rec.Close(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	r := repro{
		FuzzSeed:   s,
		Label:      p.Label(),
		Bench:      p.Bench,
		Seed:       p.Seed,
		Config:     p.Config,
		TraceFile:  filepath.Base(tracePath),
		Violations: violations,
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	jsonPath := filepath.Join(out, fmt.Sprintf("fuzz-%d.json", s))
	if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "  minimised to %s\n  repro: %s + %s\n", p.Label(), jsonPath, tracePath)
	return nil
}
