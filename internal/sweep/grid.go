package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Axis is one swept dimension of a grid: a config field (from the
// config.Fields registry) and the values it takes.
type Axis struct {
	// Field is the canonical config field name, e.g. "l1.size".
	Field string
	// Values are the field values in Set syntax, e.g. ["16K", "32K"].
	Values []string
}

// ParseAxis parses the CLI axis syntax "field=v1,v2,v3".
func ParseAxis(s string) (Axis, error) {
	field, vals, ok := strings.Cut(s, "=")
	if !ok {
		return Axis{}, fmt.Errorf("sweep: bad axis %q (want field=v1,v2,...)", s)
	}
	field = strings.TrimSpace(field)
	var values []string
	for _, v := range strings.Split(vals, ",") {
		if v = strings.TrimSpace(v); v != "" {
			values = append(values, v)
		}
	}
	if field == "" || len(values) == 0 {
		return Axis{}, fmt.Errorf("sweep: bad axis %q (want field=v1,v2,...)", s)
	}
	if _, err := config.FieldByName(field); err != nil {
		return Axis{}, err
	}
	return Axis{Field: field, Values: values}, nil
}

// ParseSeeds parses a seed list: either a range "1..5" or a comma list
// "1,2,7".
func ParseSeeds(s string) ([]uint64, error) {
	s = strings.TrimSpace(s)
	if lo, hi, ok := strings.Cut(s, ".."); ok {
		a, err1 := strconv.ParseUint(strings.TrimSpace(lo), 10, 64)
		b, err2 := strconv.ParseUint(strings.TrimSpace(hi), 10, 64)
		if err1 != nil || err2 != nil || b < a {
			return nil, fmt.Errorf("sweep: bad seed range %q (want lo..hi)", s)
		}
		if b-a >= 1<<20 {
			return nil, fmt.Errorf("sweep: seed range %q too large", s)
		}
		out := make([]uint64, 0, b-a+1)
		for v := a; v <= b; v++ {
			out = append(out, v)
		}
		return out, nil
	}
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad seed %q in %q", part, s)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: empty seed list %q", s)
	}
	return out, nil
}

// Grid declares a sweep: a base configuration, config-field axes forming a
// cartesian product, and the benchmark and seed dimensions.
type Grid struct {
	// Base is the configuration every point starts from.
	Base config.Config
	// Axes are the swept config fields. An empty slice sweeps just Base.
	Axes []Axis
	// Benches are the workloads; must be non-empty.
	Benches []workload.Profile
	// Seeds are the workload seeds; empty defaults to {1}.
	Seeds []uint64
}

// Size returns the number of jobs Expand will produce.
func (g Grid) Size() int {
	n := 1
	for _, a := range g.Axes {
		n *= len(a.Values)
	}
	seeds := len(g.Seeds)
	if seeds == 0 {
		seeds = 1
	}
	return n * len(g.Benches) * seeds
}

// Expand enumerates the grid into jobs: the cartesian product of every axis
// (first axis slowest, last fastest), crossed with benchmarks and seeds.
// Every expanded configuration is validated, so a bad axis value fails here
// with the offending combination named rather than mid-run. Two axes over
// one field are an error: the later would overwrite the earlier at every
// point, so the earlier's values would never run.
func (g Grid) Expand() ([]Job, error) {
	if len(g.Benches) == 0 {
		return nil, fmt.Errorf("sweep: grid has no benchmarks")
	}
	for i, a := range g.Axes {
		if len(a.Values) == 0 {
			return nil, fmt.Errorf("sweep: axis %q has no values", a.Field)
		}
		if _, err := config.FieldByName(a.Field); err != nil {
			return nil, err
		}
		for _, b := range g.Axes[:i] {
			if b.Field == a.Field {
				return nil, fmt.Errorf("sweep: field %q is swept by two axes (give all its values in one axis)", a.Field)
			}
		}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}

	// Odometer over the axis value indices, last axis fastest.
	idx := make([]int, len(g.Axes))
	var jobs []Job
	for {
		cfg := g.Base
		labels := make(map[string]string, len(g.Axes))
		for ai, a := range g.Axes {
			v := a.Values[idx[ai]]
			if err := config.SetField(&cfg, a.Field, v); err != nil {
				return nil, fmt.Errorf("sweep: axis %s=%s: %w", a.Field, v, err)
			}
			labels[a.Field] = v
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: invalid point %s: %w", labelString(labels), err)
		}
		// Content-address trace-driven points before any key is derived:
		// jobs must be identified by what the trace contains, not where it
		// happens to live (and a missing or corrupt file fails here, with
		// the point named, rather than mid-run).
		if err := trace.Resolve(&cfg); err != nil {
			return nil, fmt.Errorf("sweep: point %s: %w", labelString(labels), err)
		}
		for _, bench := range g.Benches {
			for _, seed := range seeds {
				jobs = append(jobs, Job{Config: cfg, Bench: bench, Seed: seed, Axes: labels})
			}
		}
		// Advance the odometer; done when it wraps (or has no digits).
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(g.Axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return jobs, nil
}

// SuiteBenches resolves comma-separated suite names ("int,fp") to profiles.
func SuiteBenches(suites string) ([]workload.Profile, error) {
	var out []workload.Profile
	for _, name := range strings.Split(suites, ",") {
		s, err := workload.ParseSuite(name)
		if err != nil {
			return nil, err
		}
		out = append(out, workload.SuiteOf(s)...)
	}
	return out, nil
}

// NamedBenches resolves comma-separated benchmark names to profiles.
func NamedBenches(names string) ([]workload.Profile, error) {
	var out []workload.Profile
	for _, name := range strings.Split(names, ",") {
		p, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// labelString renders axis labels "k=v k=v" sorted by key.
func labelString(labels map[string]string) string {
	parts := make([]string, 0, len(labels))
	for _, k := range sortedKeys(labels) {
		parts = append(parts, k+"="+labels[k])
	}
	if len(parts) == 0 {
		return "(base)"
	}
	return strings.Join(parts, " ")
}
