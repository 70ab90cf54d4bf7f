package repro

// The matrix test is the digest gate over the smoke matrix: seven schemes
// (the ELSQ default, OoO-64, the idealised central LSQ, SVW, the contended
// fabric and the two predictive classifiers) over the INT and FP suites at
// the smoke budget, seed 1. testdata/matrix.json pins each row's results
// digest and energy digest, and the test reproduces both twice:
//
//   - scalar: every point runs alone with a functional warm-up;
//   - resumed: each benchmark's seven points resume from one shared
//     warm-up checkpoint, with the differential oracle certifying every
//     committed load of every point.
//
// Throughput is not measured here; `bash perf/run.sh` measures it.
//
// Regenerate together with testdata/golden.json (only when a change is
// meant to alter results, alongside a sweep cacheVersion bump):
//
//	go test . -update-golden

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/simrun"
	"repro/internal/store"
	"repro/internal/workload"
)

// matrixRow is one (scheme, suite) row of the smoke matrix.
type matrixRow struct {
	name  string
	suite workload.Suite
	cfg   config.Config
}

// matrixRows lists the rows scheme-major, INT before FP.
func matrixRows() []matrixRow {
	central := config.Default()
	central.LSQ = config.LSQCentral
	svw := config.Default()
	svw.LSQ = config.LSQSVW
	contended := config.Default()
	contended.NoC = config.NoCContended
	pred := config.Default()
	pred.Class = config.ClassCacheLevel
	delay := config.Default()
	delay.Class = config.ClassDelayTrack
	schemes := []struct {
		label string
		cfg   config.Config
	}{
		{"elsq", config.Default()},
		{"ooo64", config.OoO64()},
		{"central", central},
		{"svw", svw},
		{"elsq-noc", contended},
		{"elsq-pred", pred},
		{"elsq-delay", delay},
	}
	var rows []matrixRow
	for _, sc := range schemes {
		rows = append(rows,
			matrixRow{sc.label + "/int", workload.SuiteInt, sc.cfg.SmokeBudget()},
			matrixRow{sc.label + "/fp", workload.SuiteFP, sc.cfg.SmokeBudget()})
	}
	return rows
}

// matrixFixture is the layout of testdata/matrix.json.
type matrixFixture struct {
	// GOARCH is the architecture that wrote the digests: simulation
	// results are bit-identical only within one.
	GOARCH string         `json:"goarch"`
	Rows   []matrixResult `json:"rows"`
}

// matrixResult is one row's outcome over its suite. Only the two digests
// are compared; the headline metrics are recorded for readers.
type matrixResult struct {
	Name              string  `json:"name"`
	ResultsDigest     string  `json:"results_digest"`
	EnergyDigest      string  `json:"energy_digest"`
	MeanIPC           float64 `json:"mean_ipc"`
	LoadLocality30    float64 `json:"load_locality_30"`
	StoreLocality30   float64 `json:"store_locality_30"`
	EnergyPJPerInst   float64 `json:"energy_pj_per_inst"`
	BankPowerDownFrac float64 `json:"bank_power_down_frac"`
}

func TestSmokeMatrix(t *testing.T) {
	path := filepath.Join("testdata", "matrix.json")
	rows := matrixRows()
	scalar := runMatrixScalar(t, rows)
	want := scalar
	if *updateGolden {
		buf, err := json.MarshalIndent(matrixFixture{GOARCH: runtime.GOARCH, Rows: scalar}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d matrix rows to %s", len(scalar), path)
	} else {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read matrix fixture (regenerate with -update-golden): %v", err)
		}
		var fix matrixFixture
		if err := json.Unmarshal(buf, &fix); err != nil {
			t.Fatal(err)
		}
		if fix.GOARCH == runtime.GOARCH {
			want = fix.Rows
		} else {
			t.Logf("%s digests were written on %s, not %s: checking resumed == scalar only",
				path, fix.GOARCH, runtime.GOARCH)
		}
	}
	checkMatrix(t, "scalar", scalar, want)
	checkMatrix(t, "resumed", runMatrixResumed(t, rows), want)

	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %7s %6s %6s %8s %6s  %-32s  %s\n",
		"row", "IPC", "ld@30", "st@30", "pJ/inst", "pd%", "results digest", "energy digest")
	for _, r := range scalar {
		fmt.Fprintf(&b, "%-16s %7.4f %6.3f %6.3f %8.1f %6.1f  %-32s  %s\n",
			r.Name, r.MeanIPC, r.LoadLocality30, r.StoreLocality30,
			r.EnergyPJPerInst, r.BankPowerDownFrac*100, r.ResultsDigest, r.EnergyDigest)
	}
	t.Log("smoke matrix:\n" + b.String())
}

// runMatrixScalar runs every point of every row on its own, with a
// functional warm-up.
func runMatrixScalar(t *testing.T, rows []matrixRow) []matrixResult {
	t.Helper()
	out := make([]matrixResult, len(rows))
	for i, row := range rows {
		var results []*cpu.Result
		var reports []*energy.Report
		for _, prof := range workload.SuiteOf(row.suite) {
			o, err := simrun.Point{Config: row.cfg, Bench: prof.Name, Seed: 1}.Run(nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", row.name, prof.Name, err)
			}
			results = append(results, o.Result)
			reports = append(reports, o.Energy)
		}
		out[i] = summarise(row.name, results, reports)
	}
	return out
}

// runMatrixResumed runs, per benchmark, the points of every row of its
// suite through one checkpoint store, so the first point builds the
// warm-up checkpoint and every point resumes from it, with the oracle
// attached. Only the results and energy reports are kept, so each point's
// oracle image dies with the point.
func runMatrixResumed(t *testing.T, rows []matrixRow) []matrixResult {
	t.Helper()
	results := make([][]*cpu.Result, len(rows))
	reports := make([][]*energy.Report, len(rows))
	points, resumed := 0, 0
	for _, su := range []workload.Suite{workload.SuiteInt, workload.SuiteFP} {
		var idx []int
		for i, row := range rows {
			if row.suite == su {
				idx = append(idx, i)
			}
		}
		for _, prof := range workload.SuiteOf(su) {
			ckpts := store.NewMem[ckpt.Snapshot]()
			builds := 0
			for _, i := range idx {
				where := rows[i].name + "/" + prof.Name
				o, err := simrun.Point{Config: rows[i].cfg, Bench: prof.Name, Seed: 1, Ckpt: ckpts, Oracle: true}.Run(nil)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				points++
				if o.CkptBuilt {
					builds++
				}
				if o.Resumed {
					resumed++
				} else {
					t.Errorf("%s did not resume from a checkpoint", where)
				}
				if err := o.Oracle.Err(); err != nil {
					t.Errorf("%s: %v", where, err)
				}
				if o.Oracle.Loads() == 0 {
					t.Errorf("%s: the oracle certified no loads", where)
				}
				results[i] = append(results[i], o.Result)
				reports[i] = append(reports[i], o.Energy)
			}
			if builds != 1 {
				t.Errorf("%s: %d checkpoint builds, want 1 shared by all %d rows", prof.Name, builds, len(idx))
			}
		}
	}
	t.Logf("resumed pass: %d/%d points resumed", resumed, points)
	out := make([]matrixResult, len(rows))
	for i, row := range rows {
		out[i] = summarise(row.name, results[i], reports[i])
	}
	return out
}

// checkMatrix compares one pass's digests against the wanted rows.
func checkMatrix(t *testing.T, pass string, got, want []matrixResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s pass produced %d rows, want %d", pass, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name {
			t.Errorf("%s pass row %d is %s, want %s", pass, i, g.Name, w.Name)
			continue
		}
		if g.ResultsDigest != w.ResultsDigest {
			t.Errorf("%s: %s pass results digest %s, want %s (IPC %.4f, want %.4f)",
				w.Name, pass, g.ResultsDigest, w.ResultsDigest, g.MeanIPC, w.MeanIPC)
		}
		if g.EnergyDigest != w.EnergyDigest {
			t.Errorf("%s: %s pass energy digest %s, want %s (%.1f pJ/inst, want %.1f)",
				w.Name, pass, g.EnergyDigest, w.EnergyDigest, g.EnergyPJPerInst, w.EnergyPJPerInst)
		}
	}
}

// summarise folds a row's per-benchmark results and energy reports, in
// suite order, into its fixture entry. The energy digest hashes each
// benchmark's report digest in turn.
func summarise(name string, results []*cpu.Result, reports []*energy.Report) matrixResult {
	r := matrixResult{Name: name, ResultsDigest: digestResults(results)}
	eh := sha256.New()
	var totalPJ, pd float64
	var committed uint64
	for i, res := range results {
		r.MeanIPC += res.IPC
		r.LoadLocality30 += res.LoadDist.FracWithin(30)
		r.StoreLocality30 += res.StoreDist.FracWithin(30)
		totalPJ += reports[i].TotalPJ
		committed += res.Committed
		pd += reports[i].BankPowerDownFrac
		eh.Write([]byte(reports[i].Digest()))
	}
	n := float64(len(results))
	r.MeanIPC /= n
	r.LoadLocality30 /= n
	r.StoreLocality30 /= n
	if committed > 0 {
		r.EnergyPJPerInst = totalPJ / float64(committed)
	}
	r.BankPowerDownFrac = pd / n
	r.EnergyDigest = hex.EncodeToString(eh.Sum(nil)[:16])
	return r
}

// digestResults folds every deterministic field of the results into one
// digest: committed counts, cycle counts, IPC bits, sorted counters, both
// histograms and the activity statistics.
func digestResults(results []*cpu.Result) string {
	h := sha256.New()
	w := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range results {
		h.Write([]byte(r.Bench))
		h.Write([]byte{0})
		h.Write([]byte(r.Config))
		h.Write([]byte{0})
		w(r.Committed)
		w(uint64(r.Cycles))
		w(math.Float64bits(r.IPC))
		snap := r.Counters.Snapshot()
		names := make([]string, 0, len(snap))
		for k := range snap {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			h.Write([]byte(k))
			h.Write([]byte{0})
			w(snap[k])
		}
		w(r.LoadDist.Total)
		w(r.LoadDist.Overflow)
		for _, c := range r.LoadDist.Counts {
			w(c)
		}
		w(r.StoreDist.Total)
		w(r.StoreDist.Overflow)
		for _, c := range r.StoreDist.Counts {
			w(c)
		}
		w(math.Float64bits(r.LLIdleFrac))
		w(math.Float64bits(r.AvgEpochs))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
