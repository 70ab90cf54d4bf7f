package sweep

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/cpu"
)

// resultDigest returns the stable content digest of one simulation result:
// sha256 of its canonical JSON encoding, truncated to 16 bytes of hex.
// The encoding is deterministic (counter bags marshal as sorted maps), and
// it is stable across a JSON round-trip, so a result served from a
// DiskCache digests identically to the freshly simulated original.
func resultDigest(r *cpu.Result) string {
	b, err := json.Marshal(r)
	if err != nil {
		// Result is a flat struct of numbers, text-marshalling enums and
		// JSON-marshalling stats; encoding can only fail if it gains an
		// unserialisable field, which must not happen silently.
		panic(fmt.Sprintf("sweep: result encoding failed: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// ResultsDigest folds an outcome sequence into one digest: per outcome, in
// order, the job key and the result's content digest (failed jobs fold a
// marker). Axis labels and cache-hit flags are excluded — the digest names
// what was computed, not how it was scheduled or served — so runs of the
// same grid at any worker count, cached or not, produce equal digests.
func ResultsDigest(outcomes []Outcome) string {
	h := sha256.New()
	for _, o := range outcomes {
		if o.Result == nil {
			fmt.Fprintf(h, "%s|!\n", o.Key)
			continue
		}
		fmt.Fprintf(h, "%s|%s\n", o.Key, resultDigest(o.Result))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Row is one simulation outcome flattened for artifacts: the identity of
// the point (config name + hash, axis labels, benchmark, seed), the headline
// timing results, and the full event-counter bag.
type Row struct {
	// Config is the human-readable configuration name (config.Name).
	Config string `json:"config"`
	// ConfigHash is the stable digest of the full configuration.
	ConfigHash string `json:"config_hash"`
	// Axes are the grid axis values that produced this point, if any.
	Axes map[string]string `json:"axes,omitempty"`
	// Bench and Suite identify the workload.
	Bench string `json:"bench"`
	Suite string `json:"suite"`
	// Seed is the workload seed.
	Seed uint64 `json:"seed"`
	// Committed, Cycles and IPC are the headline results.
	Committed uint64  `json:"committed"`
	Cycles    int64   `json:"cycles"`
	IPC       float64 `json:"ipc"`
	// LLIdleFrac and AvgEpochs carry the Figure 11 activity statistics.
	LLIdleFrac float64 `json:"ll_idle_frac"`
	AvgEpochs  float64 `json:"avg_epochs"`
	// CacheHit reports whether this row was served from the result cache.
	CacheHit bool `json:"cache_hit"`
	// Counters holds every event of the run with a non-zero count.
	Counters map[string]uint64 `json:"counters"`
}

// Rows flattens outcomes (skipping failed jobs, which have no result).
func Rows(outcomes []Outcome) []Row {
	rows := make([]Row, 0, len(outcomes))
	for _, o := range outcomes {
		r := o.Result
		if r == nil {
			continue
		}
		rows = append(rows, Row{
			Config:     r.Config,
			ConfigHash: o.Job.Config.Hash(),
			Axes:       o.Job.Axes,
			Bench:      r.Bench,
			Suite:      r.Suite.String(),
			Seed:       o.Job.Seed,
			Committed:  r.Committed,
			Cycles:     r.Cycles,
			IPC:        r.IPC,
			LLIdleFrac: r.LLIdleFrac,
			AvgEpochs:  r.AvgEpochs,
			CacheHit:   o.CacheHit,
			Counters:   r.Counters.Snapshot(),
		})
	}
	return rows
}

// Artifact is the JSON document a sweep emits: run summary plus all rows.
type Artifact struct {
	// Stats summarises the run (job counts, cache hits).
	Stats Stats `json:"stats"`
	// ResultsDigest is the ResultsDigest of the outcome sequence: equal
	// digests mean byte-identical results in identical canonical order,
	// which is how two sweeps of the same grid are compared.
	ResultsDigest string `json:"results_digest"`
	// Rows holds one entry per successful job in submission order.
	Rows []Row `json:"rows"`
}

// WriteJSON writes the outcomes as an indented JSON Artifact.
func WriteJSON(w io.Writer, outcomes []Outcome, stats Stats) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Artifact{Stats: stats, ResultsDigest: ResultsDigest(outcomes), Rows: Rows(outcomes)})
}

// WriteCSV writes the outcomes as CSV. Fixed columns come first, then one
// "axis:<field>" column per axis label appearing in any row, then one
// column per counter name appearing in any row — both unions sorted, so the
// header is deterministic for a given result set.
func WriteCSV(w io.Writer, outcomes []Outcome) error {
	rows := Rows(outcomes)
	axisKeys := map[string]string{}
	counterKeys := map[string]string{}
	for _, r := range rows {
		for k := range r.Axes {
			axisKeys[k] = ""
		}
		for k := range r.Counters {
			counterKeys[k] = ""
		}
	}
	axes := sortedKeys(axisKeys)
	counters := sortedKeys(counterKeys)

	header := []string{"config", "config_hash", "bench", "suite", "seed",
		"committed", "cycles", "ipc", "ll_idle_frac", "avg_epochs", "cache_hit"}
	for _, k := range axes {
		header = append(header, "axis:"+k)
	}
	for _, k := range counters {
		header = append(header, k)
	}

	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Config,
			r.ConfigHash,
			r.Bench,
			r.Suite,
			strconv.FormatUint(r.Seed, 10),
			strconv.FormatUint(r.Committed, 10),
			strconv.FormatInt(r.Cycles, 10),
			strconv.FormatFloat(r.IPC, 'f', 6, 64),
			strconv.FormatFloat(r.LLIdleFrac, 'f', 6, 64),
			strconv.FormatFloat(r.AvgEpochs, 'f', 4, 64),
			strconv.FormatBool(r.CacheHit),
		}
		for _, k := range axes {
			rec = append(rec, r.Axes[k])
		}
		for _, k := range counters {
			rec = append(rec, strconv.FormatUint(r.Counters[k], 10))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FormatProgress renders one progress event as the standard log line used
// by cmd/elsqsweep and tests.
func FormatProgress(p Progress) string {
	status := "ok"
	switch {
	case p.Err != nil:
		status = "error: " + p.Err.Error()
	case p.Outcome.CacheHit:
		status = "cache hit"
	}
	return fmt.Sprintf("[%d/%d] %s/%s seed=%d (%s)",
		p.Done, p.Total, p.Outcome.Job.Config.Name(), p.Outcome.Job.Bench.Name,
		p.Outcome.Job.Seed, status)
}
