// Every config axis must move what a simulation reports: an axis that
// changes neither the results nor the energy report is a dead knob, a
// second cache identity for one simulation.
package simrun_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/simrun"
)

// axisRows gives each axis a value that moves a result. ctx lists the
// field=value settings under which the axis is live, applied to the base
// before the axis is set; benches defaults to mcf, swim and gcc.
var axisRows = map[string]struct {
	ctx     []string
	alt     string
	benches []string
}{
	"bus.oneway":         {alt: "8"},
	"cache.ports":        {alt: "1"},
	"class.bits":         {ctx: []string{"class.policy=cachelevel"}, alt: "6"},
	"class.policy":       {alt: "cachelevel"},
	"commit.width":       {alt: "2"},
	"disamb":             {alt: "rsac"},
	"energy.table":       {alt: "hp"},
	"epoch.insts":        {alt: "32"},
	"epoch.loads":        {alt: "8"},
	"epoch.stores":       {alt: "4"},
	"epochs":             {alt: "4"},
	"ert":                {alt: "line"},
	"ert.bits":           {alt: "4"},
	"fetch.width":        {alt: "2"},
	"hl.lq":              {alt: "4"},
	"hl.sq":              {alt: "4"},
	"insts":              {alt: "2000"},
	"iq.fp":              {alt: "4"},
	"iq.int":             {alt: "4"},
	"l1.latency":         {alt: "3"},
	"l1.line":            {alt: "16"},
	"l1.size":            {alt: "8K"},
	"l1.ways":            {alt: "1"},
	"l2.latency":         {alt: "30"},
	"l2.line":            {alt: "64"},
	"l2.size":            {alt: "64K"},
	"l2.ways":            {alt: "1"},
	"lsq":                {alt: "central"},
	"me.issue":           {alt: "1"},
	"mem.latency":        {alt: "800"},
	"mesh.hop":           {ctx: []string{"insts=20000", "warmup=100000"}, alt: "8", benches: []string{"equake"}},
	"migrate.threshold":  {alt: "8"},
	"mispredict.penalty": {alt: "30"},
	"model":              {ctx: []string{"lsq=conventional"}, alt: "ooo"},
	"noc.linkwidth":      {ctx: []string{"noc.model=contended"}, alt: "4"},
	"noc.model":          {alt: "contended"},
	"place.policy":       {alt: "leastloaded"},
	"rob.size":           {alt: "16"},
	"sample.bleed":       {ctx: []string{"sample.intervals=3"}, alt: "5000"},
	"sample.intervals":   {ctx: []string{"sample.bleed=5000"}, alt: "3"},
	"sqm":                {alt: "false"},
	"ssbf.bits":          {ctx: []string{"lsq=svw"}, alt: "4"},
	"svw":                {ctx: []string{"lsq=svw"}, alt: "checkstores"},
	"warmup":             {alt: "5000"},
}

// runDigests runs cfg on each benchmark (seed 1) and folds the results,
// without the configuration's name, and the energy reports into two
// digests.
func runDigests(t *testing.T, cfg config.Config, benches []string) (results, energy string) {
	t.Helper()
	rh, eh := sha256.New(), sha256.New()
	for _, b := range benches {
		out, err := simrun.Point{Config: cfg, Bench: b, Seed: 1}.Run(nil)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		r := *out.Result
		r.Config = "" // a label, not a result
		j, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		rh.Write(j)
		eh.Write([]byte(out.Energy.Digest()))
	}
	return hex.EncodeToString(rh.Sum(nil)), hex.EncodeToString(eh.Sum(nil))
}

// TestEveryAxisMovesAResult gives every config axis a different value, in a
// context where it is live, and requires the results digest or the energy
// digest to change. An axis without a row fails, so a field that nothing
// reads cannot land silently.
func TestEveryAxisMovesAResult(t *testing.T) {
	// A replay reproduces the live run by contract (internal/trace).
	exempt := map[string]bool{"trace": true}
	set := func(t *testing.T, c *config.Config, kv string) {
		t.Helper()
		name, v, _ := strings.Cut(kv, "=")
		if err := config.SetField(c, name, v); err != nil {
			t.Fatal(err)
		}
	}
	type digests struct{ results, energy string }
	bases := map[string]digests{}
	seen := map[string]bool{}
	for _, f := range config.Fields() {
		seen[f.Name] = true
		row, ok := axisRows[f.Name]
		if exempt[f.Name] {
			continue
		}
		if !ok {
			t.Errorf("axis %s has no row: give it a value that moves a result", f.Name)
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			base := config.Default().WithBudget(3000, 20000)
			for _, kv := range row.ctx {
				set(t, &base, kv)
			}
			alt := base
			set(t, &alt, f.Name+"="+row.alt)
			if f.Get(&alt) == f.Get(&base) {
				t.Fatalf("%s=%s is the base value", f.Name, row.alt)
			}
			benches := row.benches
			if benches == nil {
				benches = []string{"mcf", "swim", "gcc"}
			}
			key := base.Hash() + strings.Join(benches, ",")
			d0, ok := bases[key]
			if !ok {
				d0.results, d0.energy = runDigests(t, base, benches)
				bases[key] = d0
			}
			var d1 digests
			d1.results, d1.energy = runDigests(t, alt, benches)
			if d1 == d0 {
				t.Errorf("%s=%s (context %v) moved neither the results nor the energy report on %v",
					f.Name, row.alt, row.ctx, benches)
			}
		})
	}
	for name := range axisRows {
		if !seen[name] {
			t.Errorf("row for unknown axis %s", name)
		}
	}
}
