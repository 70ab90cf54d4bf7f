package experiments

import (
	"fmt"
	"strings"

	"repro/internal/workload"
)

// Per-read energies from the paper (CACTI 4.2 at 70nm, Section 6).
const (
	// ERTReadNJ is the read energy of the 2KB ERT SRAM in nanojoules.
	ERTReadNJ = 0.00195
	// L1ReadNJ is the read energy of the 32KB L1 in nanojoules.
	L1ReadNJ = 0.0958
)

// Energy reproduces the Section 6 analysis: the ERT's read-energy is ~2% of
// the L1's, so guarding global searches with it is nearly free; combined
// with the Figure 11 low-power residency and the Table 2 access counts this
// is the paper's power argument. The comparison FMC-Hash-SVW vs
// FMC-Hash-RSAC (which method better simplifies the load queue) is decided
// on access counts: RSAC reduces cache accesses, round trips and LL/HL
// queue accesses, at marginally lower performance.
func Energy(opt Options) (string, error) {
	cfgs := table2Configs()
	runs, err := runSuites(cfgs, opt)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Section 6: energy accounting\n\n")
	fmt.Fprintf(&b, "Per-read energy (paper, CACTI 4.2 @70nm): ERT %.5f nJ, L1 %.4f nJ\n", ERTReadNJ, L1ReadNJ)
	fmt.Fprintf(&b, "ERT read energy = %.1f%% of an L1 read (paper: ~2%%)\n\n", 100*ERTReadNJ/L1ReadNJ)
	for _, suite := range []workload.Suite{workload.SuiteFP, workload.SuiteInt} {
		fmt.Fprintf(&b, "%s — filter energy per 100M insts (mJ):\n", suite)
		for ci, cfg := range cfgs {
			sr := runs[ci][suite]
			ert := sr.counterMeanMillions("ert") * 1e6 * ERTReadNJ * 1e-6 // nJ -> mJ
			l1 := sr.counterMeanMillions(cacheAccesses...) * 1e6 * L1ReadNJ * 1e-6
			fmt.Fprintf(&b, "  %-16s ERT %7.3f   cache %8.3f\n", cfg.Name(), ert, l1)
		}
		b.WriteString("\n")
	}
	// RSAC vs SVW comparison, as in the paper's closing argument.
	svwIdx, rsacIdx := 4, 5
	for _, suite := range []workload.Suite{workload.SuiteFP, workload.SuiteInt} {
		svw := runs[svwIdx][suite]
		rsac := runs[rsacIdx][suite]
		fmt.Fprintf(&b, "%s RSAC vs SVW: cache %+.1f%%, roundtrips %+.1f%%, LL-SQ %+.1f%%, IPC %+.1f%%\n",
			suite,
			100*(rsac.counterMeanMillions(cacheAccesses...)/svw.counterMeanMillions(cacheAccesses...)-1),
			relOrZero(rsac.counterMeanMillions("roundtrip"), svw.counterMeanMillions("roundtrip")),
			relOrZero(rsac.counterMeanMillions("ll_sq"), svw.counterMeanMillions("ll_sq")),
			100*(rsac.meanIPC()/svw.meanIPC()-1))
	}
	b.WriteString("\nPaper conclusion: RSAC reduces accesses and round trips versus SVW at\n" +
		"marginally lower IPC — better performance-power without the SSBF.\n")
	return b.String(), nil
}

func relOrZero(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (a/b - 1)
}
