package sweep

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// tinyConfig returns a configuration cheap enough for unit tests.
func tinyConfig() config.Config {
	c := config.Default()
	c.MaxInsts = 2_000
	c.WarmupInsts = 10_000
	return c
}

func bench(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGridExpandCartesian(t *testing.T) {
	g := Grid{
		Base: tinyConfig(),
		Axes: []Axis{
			{Field: "l1.size", Values: []string{"16K", "32K", "64K"}},
			{Field: "ert", Values: []string{"line", "hash"}},
		},
		Benches: []workload.Profile{bench(t, "gzip"), bench(t, "swim")},
		Seeds:   []uint64{1, 2},
	}
	if g.Size() != 3*2*2*2 {
		t.Fatalf("Size() = %d, want 24", g.Size())
	}
	jobs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != g.Size() {
		t.Fatalf("Expand() produced %d jobs, want %d", len(jobs), g.Size())
	}
	// First axis slowest: the first 8 jobs all have l1.size=16K, cycling
	// ert fastest, then bench, then seed innermost.
	first := jobs[0]
	if first.Config.L1.SizeBytes != 16<<10 || first.Config.ERT != config.ERTLine ||
		first.Bench.Name != "gzip" || first.Seed != 1 {
		t.Errorf("unexpected first job: %+v", first)
	}
	if jobs[1].Seed != 2 || jobs[2].Bench.Name != "swim" {
		t.Error("seed/bench dimensions not innermost")
	}
	if jobs[4].Config.ERT != config.ERTHash {
		t.Error("last config axis not fastest")
	}
	if jobs[8].Config.L1.SizeBytes != 32<<10 {
		t.Error("first config axis not slowest")
	}
	if jobs[0].Axes["l1.size"] != "16K" || jobs[0].Axes["ert"] != "line" {
		t.Errorf("axis labels missing: %v", jobs[0].Axes)
	}
	// Distinct points must have distinct keys; identical dimensions only
	// differ by bench/seed.
	keys := map[string]bool{}
	for _, j := range jobs {
		keys[j.Key()] = true
	}
	if len(keys) != len(jobs) {
		t.Errorf("expected %d distinct keys, got %d", len(jobs), len(keys))
	}
}

func TestGridExpandEdgeCases(t *testing.T) {
	base := tinyConfig()
	gz := []workload.Profile{{Name: "gzip", Suite: workload.SuiteInt}}

	// No axes: one point per (bench, seed); seeds default to {1}.
	jobs, err := (Grid{Base: base, Benches: gz}).Expand()
	if err != nil || len(jobs) != 1 || jobs[0].Seed != 1 {
		t.Errorf("axis-free grid: %d jobs, err %v", len(jobs), err)
	}

	// An axis with no values is an error, not a silent empty grid.
	_, err = (Grid{Base: base, Axes: []Axis{{Field: "l1.size"}}, Benches: gz}).Expand()
	if err == nil || !strings.Contains(err.Error(), "no values") {
		t.Errorf("empty axis: err = %v", err)
	}

	// No benchmarks is an error.
	if _, err := (Grid{Base: base}).Expand(); err == nil {
		t.Error("benchless grid accepted")
	}

	// Unknown fields and invalid points are caught at expansion.
	_, err = (Grid{Base: base, Axes: []Axis{{Field: "bogus", Values: []string{"1"}}}, Benches: gz}).Expand()
	if err == nil {
		t.Error("unknown axis field accepted")
	}
	_, err = (Grid{Base: base, Axes: []Axis{{Field: "l1.size", Values: []string{"48K"}}}, Benches: gz}).Expand()
	if err == nil || !strings.Contains(err.Error(), "l1.size=48K") {
		t.Errorf("invalid point: err = %v", err)
	}
}

func TestParseAxis(t *testing.T) {
	a, err := ParseAxis("l1.size=16K, 32K,64K")
	if err != nil {
		t.Fatal(err)
	}
	if a.Field != "l1.size" || !reflect.DeepEqual(a.Values, []string{"16K", "32K", "64K"}) {
		t.Errorf("ParseAxis: %+v", a)
	}
	for _, bad := range []string{"l1.size", "=1,2", "l1.size=", "bogus=1"} {
		if _, err := ParseAxis(bad); err == nil {
			t.Errorf("ParseAxis(%q) accepted", bad)
		}
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := ParseSeeds("1..5")
	if err != nil || !reflect.DeepEqual(got, []uint64{1, 2, 3, 4, 5}) {
		t.Errorf("ParseSeeds(1..5) = %v, %v", got, err)
	}
	got, err = ParseSeeds("7, 2,7")
	if err != nil || !reflect.DeepEqual(got, []uint64{7, 2, 7}) {
		t.Errorf("ParseSeeds(7,2,7) = %v, %v", got, err)
	}
	for _, bad := range []string{"", "5..1", "a..b", "1,x"} {
		if _, err := ParseSeeds(bad); err == nil {
			t.Errorf("ParseSeeds(%q) accepted", bad)
		}
	}
}

func TestRunnerCacheHitMiss(t *testing.T) {
	jobs := []Job{
		{Config: tinyConfig(), Bench: bench(t, "gzip"), Seed: 1},
		{Config: tinyConfig(), Bench: bench(t, "gzip"), Seed: 2},
		{Config: tinyConfig(), Bench: bench(t, "gzip"), Seed: 1}, // duplicate
	}
	cache := NewMemCache()
	r := Runner{Workers: 2, Cache: cache}

	outcomes, stats, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total != 3 || stats.Unique != 2 || stats.Ran != 2 || stats.CacheHits != 0 {
		t.Errorf("first run stats: %+v", stats)
	}
	if outcomes[0].Result == nil || outcomes[2].Result == nil {
		t.Fatal("missing results")
	}
	if outcomes[0].Result != outcomes[2].Result {
		t.Error("duplicate jobs not deduplicated")
	}
	// Deduplication shares execution state, not the submitted Job: two
	// spellings of the same point keep their own axis labels.
	labelled := jobs
	labelled[0].Axes = map[string]string{"l1.size": "32K"}
	labelled[2].Axes = map[string]string{"l1.size": "32768"}
	lout, _, err := r.Run(labelled)
	if err != nil {
		t.Fatal(err)
	}
	if lout[0].Job.Axes["l1.size"] != "32K" || lout[2].Job.Axes["l1.size"] != "32768" {
		t.Errorf("dedup lost per-submission axis labels: %v vs %v",
			lout[0].Job.Axes, lout[2].Job.Axes)
	}
	if cache.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", cache.Len())
	}

	// Second run: everything served from cache.
	outcomes2, stats2, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.CacheHits != 2 || stats2.Ran != 0 {
		t.Errorf("second run stats: %+v", stats2)
	}
	if !outcomes2[0].CacheHit || outcomes2[0].Result != outcomes[0].Result {
		t.Error("cache hit did not reuse the stored result")
	}

	// A different instruction budget must miss: the budget is part of the
	// cache identity.
	bigger := tinyConfig()
	bigger.MaxInsts = 3_000
	_, stats3, err := r.Run([]Job{{Config: bigger, Bench: bench(t, "gzip"), Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if stats3.CacheHits != 0 || stats3.Ran != 1 {
		t.Errorf("budget change should miss the cache: %+v", stats3)
	}
}

func TestRunnerProgressAndErrors(t *testing.T) {
	bad := tinyConfig()
	bad.FetchWidth = 0 // cpu.New must reject this
	jobs := []Job{
		{Config: tinyConfig(), Bench: bench(t, "gzip"), Seed: 1},
		{Config: bad, Bench: bench(t, "gzip"), Seed: 1},
	}
	var events []Progress
	r := Runner{Workers: 1, OnProgress: func(p Progress) { events = append(events, p) }}
	outcomes, _, err := r.Run(jobs)
	if err == nil || !strings.Contains(err.Error(), "gzip") {
		t.Errorf("invalid config error not propagated: %v", err)
	}
	if outcomes[0].Result == nil {
		t.Error("healthy job missing its result despite sibling failure")
	}
	if outcomes[1].Result != nil {
		t.Error("failed job has a result")
	}
	if len(events) != 2 || events[1].Done != 2 || events[1].Total != 2 {
		t.Errorf("progress events: %+v", events)
	}
}

func TestDiskCache(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Config: tinyConfig(), Bench: bench(t, "gzip"), Seed: 1}
	r := Runner{Workers: 1, Cache: cache}
	outcomes, stats, err := r.Run([]Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ran != 1 || stats.CacheHits != 0 {
		t.Errorf("first run stats: %+v", stats)
	}

	// A fresh cache instance over the same directory must hit, and the
	// round-tripped result must match what was simulated.
	cache2, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	outcomes2, stats2, err := (&Runner{Workers: 1, Cache: cache2}).Run([]Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.CacheHits != 1 || stats2.Ran != 0 {
		t.Errorf("second run stats: %+v", stats2)
	}
	got, want := outcomes2[0].Result, outcomes[0].Result
	if got.IPC != want.IPC || got.Cycles != want.Cycles || got.Committed != want.Committed {
		t.Errorf("disk round trip changed results: got %+v want %+v", got, want)
	}
	if g, w := got.Counters.Snapshot(), want.Counters.Snapshot(); len(w) == 0 || !reflect.DeepEqual(g, w) {
		t.Errorf("disk round trip changed counters:\n got %v\nwant %v", g, w)
	}
	if got.Suite != want.Suite || got.LoadDist.Total != want.LoadDist.Total {
		t.Error("disk round trip lost suite or histograms")
	}

	// Corrupt entries are misses, not failures.
	if err := os.WriteFile(filepath.Join(dir, job.Key()+".json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache2.Get(job.Key()); ok {
		t.Error("corrupt cache entry served")
	}
	// Entries that parse but cannot be real results (stale schema, foreign
	// JSON in the cache dir) are also misses.
	if err := os.WriteFile(filepath.Join(dir, job.Key()+".json"), []byte(`{"Bench":"gzip"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache2.Get(job.Key()); ok {
		t.Error("implausible cache entry served")
	}
	// An entry naming a counter outside the event table (a result written
	// under the retired "cache" counter) is a miss; the same entry without
	// it is served.
	for _, c := range []struct {
		counters string
		hit      bool
	}{{`{"ert":1}`, true}, {`{"cache":7,"ert":1}`, false}} {
		entry := `{"Bench":"gzip","Committed":1,"Counters":` + c.counters +
			`,"LoadDist":{"Width":30,"Counts":[0]},"StoreDist":{"Width":30,"Counts":[0]}}`
		if err := os.WriteFile(filepath.Join(dir, job.Key()+".json"), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := cache2.Get(job.Key()); ok != c.hit {
			t.Errorf("entry with counters %s: hit %v, want %v", c.counters, ok, c.hit)
		}
	}
}

func TestArtifacts(t *testing.T) {
	g := Grid{
		Base:    tinyConfig(),
		Axes:    []Axis{{Field: "sqm", Values: []string{"true", "false"}}},
		Benches: []workload.Profile{bench(t, "gzip")},
		Seeds:   []uint64{1},
	}
	jobs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	outcomes, stats, err := (&Runner{Workers: 2}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}

	var jsonBuf bytes.Buffer
	if err := WriteJSON(&jsonBuf, outcomes, stats); err != nil {
		t.Fatal(err)
	}
	var art Artifact
	if err := json.Unmarshal(jsonBuf.Bytes(), &art); err != nil {
		t.Fatalf("JSON artifact does not parse: %v", err)
	}
	if len(art.Rows) != 2 || art.Stats.Total != 2 {
		t.Errorf("artifact shape: %d rows, stats %+v", len(art.Rows), art.Stats)
	}
	if art.Rows[0].IPC <= 0 || art.Rows[0].Axes["sqm"] != "true" || art.Rows[0].ConfigHash == "" {
		t.Errorf("bad first row: %+v", art.Rows[0])
	}
	if art.Rows[0].Counters["l1_access"] == 0 {
		t.Error("counters missing from JSON row")
	}

	var csvBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, outcomes); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&csvBuf).ReadAll()
	if err != nil {
		t.Fatalf("CSV artifact does not parse: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("CSV has %d records, want header + 2 rows", len(recs))
	}
	header := strings.Join(recs[0], ",")
	for _, col := range []string{"config", "ipc", "axis:sqm", "l1_access"} {
		if !strings.Contains(header, col) {
			t.Errorf("CSV header missing %q: %s", col, header)
		}
	}
}
