package repro

// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// reports its headline IPC quantity as a custom metric (`go test
// -bench=Ablation`). The paper's figures and tables are regenerated by
// internal/experiments (`go run ./cmd/paperbench -exp all`), and simulator
// throughput is measured by `bash perf/run.sh`.

import (
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// suiteIPC measures the mean IPC of a suite under cfg at the standard
// smoke budget (see the budget-semantics note in internal/config: the
// warm-up phase is functional-only, so the 30k measured instructions run
// entirely in cache-warm steady state).
func suiteIPC(b *testing.B, cfg config.Config, suite workload.Suite) float64 {
	b.Helper()
	cfg = cfg.SmokeBudget()
	var sum float64
	profs := workload.SuiteOf(suite)
	for _, p := range profs {
		r, err := Simulate(cfg, p.Name, 1)
		if err != nil {
			b.Fatal(err)
		}
		sum += r.IPC
	}
	return sum / float64(len(profs))
}

// BenchmarkAblation_SQM isolates the Store Queue Mirror's contribution on
// the forwarding-sensitive integer suite.
func BenchmarkAblation_SQM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := suiteIPC(b, config.Default(), workload.SuiteInt)
		noSQM := config.Default()
		noSQM.SQM = false
		without := suiteIPC(b, noSQM, workload.SuiteInt)
		b.ReportMetric(100*(with/without-1), "INT_sqm_gain_pct")
	}
}

// BenchmarkAblation_Epochs sweeps the number of memory engines: the window-
// size lever of the FMC design (paper Section 5.2 picks 16).
func BenchmarkAblation_Epochs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range []int{4, 16} {
			cfg := config.Default()
			cfg.NumEpochs = n
			ipc := suiteIPC(b, cfg, workload.SuiteFP)
			if n == 4 {
				b.ReportMetric(ipc, "FP_ipc_4_engines")
			} else {
				b.ReportMetric(ipc, "FP_ipc_16_engines")
			}
		}
	}
}

// BenchmarkAblation_BusLatency sweeps the CP<->MP one-way latency without
// the SQM — the cost the mirror exists to hide.
func BenchmarkAblation_BusLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, lat := range []int{4, 16} {
			cfg := config.Default()
			cfg.SQM = false
			cfg.BusOneWay = lat
			ipc := suiteIPC(b, cfg, workload.SuiteInt)
			if lat == 4 {
				b.ReportMetric(ipc, "INT_ipc_bus4")
			} else {
				b.ReportMetric(ipc, "INT_ipc_bus16")
			}
		}
	}
}

// BenchmarkAblation_MigrateThreshold sweeps the Virtual-ROB extraction
// point: too eager migrates L2 hits to the in-order engines, too lazy
// stalls the Cache Processor.
func BenchmarkAblation_MigrateThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, thr := range []int{12, 48, 192} {
			cfg := config.Default()
			cfg.MigrateThreshold = thr
			ipc := suiteIPC(b, cfg, workload.SuiteFP)
			switch thr {
			case 12:
				b.ReportMetric(ipc, "FP_ipc_thr12")
			case 48:
				b.ReportMetric(ipc, "FP_ipc_thr48")
			default:
				b.ReportMetric(ipc, "FP_ipc_thr192")
			}
		}
	}
}
