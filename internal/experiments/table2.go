package experiments

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/workload"
)

// cacheAccesses and ssbfAccesses are the counters whose sum is Table 2's
// Cache and SSBF column: every timed data-cache access by the level that
// satisfied it, and every SSBF read and write.
var (
	cacheAccesses = []string{"l1_access", "l2_access", "mem_access"}
	ssbfAccesses  = []string{"ssbf_read", "ssbf_write"}
)

// table2Configs returns the six Table 2 rows in paper order.
func table2Configs() []config.Config {
	mkFMC := func(mut func(*config.Config)) config.Config {
		c := config.Default()
		c.SQM = false // Table 2 rows are the plain filter configurations
		mut(&c)
		return c
	}
	oooSVW := config.OoO64()
	oooSVW.LSQ = config.LSQSVW
	oooSVW.SSBFBits = 10
	oooSVW.SVW = config.SVWBlind
	return []config.Config{
		config.OoO64(),
		oooSVW,
		mkFMC(func(c *config.Config) { c.ERT = config.ERTLine }),
		mkFMC(func(c *config.Config) { c.ERT = config.ERTHash }),
		mkFMC(func(c *config.Config) {
			c.ERT = config.ERTHash
			c.LSQ = config.LSQSVW
			c.SSBFBits = 10
			c.SVW = config.SVWBlind
		}),
		mkFMC(func(c *config.Config) { c.ERT = config.ERTHash; c.Disamb = config.DisambRSAC }),
	}
}

// Table2 reproduces Table 2: the number of accesses to each LSQ component
// in millions per 100M committed instructions, plus the speed-up over
// OoO-64, for both suites. Shapes to match: HL-SQ sees roughly one search
// per load (plus wrong-path inflation, stronger on INT and on the large
// window); LL-SQ insertions track the store count; LL-LQ holds only the
// rare miss-dependent-address loads; the ERT is touched by almost every
// load; SVW replaces LQ accesses with SSBF accesses; RSAC trims ERT
// traffic and round trips.
func Table2(opt Options) (string, error) {
	cfgs := table2Configs()
	runs, err := runSuites(cfgs, opt)
	if err != nil {
		return "", err
	}
	cols := []struct {
		name string
		keys []string // summed
	}{
		{"HL-LQ", []string{"hl_lq"}}, {"HL-SQ", []string{"hl_sq"}}, {"LL-LQ", []string{"ll_lq"}},
		{"LL-SQ", []string{"ll_sq"}}, {"ERT", []string{"ert"}}, {"SSBF", ssbfAccesses},
		{"RndTrip", []string{"roundtrip"}}, {"Cache", cacheAccesses},
	}
	var b strings.Builder
	b.WriteString("Table 2: accesses to LSQ components (millions per 100M insts)\n")
	for _, suite := range []workload.Suite{workload.SuiteFP, workload.SuiteInt} {
		fmt.Fprintf(&b, "\n%s:\n", suite)
		fmt.Fprintf(&b, "  %-16s", "Configuration")
		for _, c := range cols {
			fmt.Fprintf(&b, "%9s", c.name)
		}
		fmt.Fprintf(&b, "%9s\n", "Speed-Up")
		base := runs[0][suite].meanIPC()
		for ci, cfg := range cfgs {
			sr := runs[ci][suite]
			fmt.Fprintf(&b, "  %-16s", cfg.Name())
			for _, c := range cols {
				fmt.Fprintf(&b, "%9.3f", sr.counterMeanMillions(c.keys...))
			}
			fmt.Fprintf(&b, "%9.3f\n", sr.meanIPC()/base)
		}
	}
	b.WriteString("\nPaper reference (SPEC FP, OoO-64): HL-LQ 8.7, HL-SQ 27.0, Cache 33.4.\n" +
		"FMC-Hash: HL-SQ 25.5, LL-SQ 9.9, ERT 27.3, RndTrip 1.7, Speed-Up 2.10.\n")
	return b.String(), nil
}
