package config

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// FieldSpec describes one sweepable Config parameter: a stable dotted name,
// a one-line description, and string conversions in both directions. The
// registry is what lets a declarative sweep grid (internal/sweep) or a CLI
// axis flag (cmd/elsqsweep -axis l1.size=16K,32K,64K) address config fields
// without reflection.
type FieldSpec struct {
	// Name is the canonical axis name, e.g. "l1.size" or "ert.bits".
	Name string
	// Doc is a one-line human description with the accepted values.
	Doc string
	// Set parses value and stamps it onto c.
	Set func(c *Config, value string) error
	// Get renders the field's current value in a form Set accepts.
	Get func(c *Config) string
}

// intField builds a FieldSpec for a plain int field.
func intField(name, doc string, get func(*Config) *int) FieldSpec {
	return FieldSpec{
		Name: name, Doc: doc,
		Set: func(c *Config, v string) error {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("config: field %s: bad int %q", name, v)
			}
			*get(c) = n
			return nil
		},
		Get: func(c *Config) string { return strconv.Itoa(*get(c)) },
	}
}

// sizeField builds a FieldSpec for a byte-size field (accepts K/M/G suffixes).
func sizeField(name, doc string, get func(*Config) *int) FieldSpec {
	return FieldSpec{
		Name: name, Doc: doc,
		Set: func(c *Config, v string) error {
			n, err := ParseSize(v)
			if err != nil {
				return fmt.Errorf("config: field %s: %v", name, err)
			}
			*get(c) = n
			return nil
		},
		Get: func(c *Config) string { return strconv.Itoa(*get(c)) },
	}
}

// uint64Field builds a FieldSpec for a uint64 field.
func uint64Field(name, doc string, get func(*Config) *uint64) FieldSpec {
	return FieldSpec{
		Name: name, Doc: doc,
		Set: func(c *Config, v string) error {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return fmt.Errorf("config: field %s: bad uint %q", name, v)
			}
			*get(c) = n
			return nil
		},
		Get: func(c *Config) string { return strconv.FormatUint(*get(c), 10) },
	}
}

// enumField builds a FieldSpec for an enum field; its Doc lists the names.
func enumField[E ~uint8](name, doc string, names *enumNames[E], get func(*Config) *E) FieldSpec {
	return FieldSpec{
		Name: name, Doc: doc + ": " + names.list(),
		Set: func(c *Config, v string) error {
			x, err := names.parse(v)
			if err == nil {
				*get(c) = x
			}
			return err
		},
		Get: func(c *Config) string { return names.name(*get(c)) },
	}
}

// fieldRegistry lists every sweepable parameter. Keep names stable: they are
// the public axis vocabulary of cmd/elsqsweep and appear in sweep artifacts.
func fieldRegistry() []FieldSpec {
	return []FieldSpec{
		enumField("model", "processor model", &modelNames, func(c *Config) *Model { return &c.Model }),
		enumField("lsq", "LSQ scheme", &lsqNames, func(c *Config) *LSQScheme { return &c.LSQ }),
		intField("fetch.width", "fetch/decode bandwidth (insts/cycle)", func(c *Config) *int { return &c.FetchWidth }),
		intField("commit.width", "maximum commits per cycle", func(c *Config) *int { return &c.CommitWidth }),
		intField("rob.size", "Cache Processor reorder-buffer entries", func(c *Config) *int { return &c.ROBSize }),
		intField("iq.int", "integer issue-queue entries", func(c *Config) *int { return &c.IntIQ }),
		intField("iq.fp", "floating-point issue-queue entries", func(c *Config) *int { return &c.FpIQ }),
		intField("cache.ports", "L1 read/write ports", func(c *Config) *int { return &c.CachePorts }),
		intField("epochs", "LL-LSQ epochs == memory engines", func(c *Config) *int { return &c.NumEpochs }),
		intField("epoch.insts", "per-epoch instruction budget", func(c *Config) *int { return &c.EpochMaxInsts }),
		intField("epoch.loads", "per-epoch load-queue entries", func(c *Config) *int { return &c.EpochMaxLoads }),
		intField("epoch.stores", "per-epoch store-queue entries", func(c *Config) *int { return &c.EpochMaxStores }),
		intField("me.issue", "memory-engine issue width", func(c *Config) *int { return &c.MEIssueWidth }),
		intField("hl.lq", "high-locality load-queue entries", func(c *Config) *int { return &c.HLLQSize }),
		intField("hl.sq", "high-locality store-queue entries", func(c *Config) *int { return &c.HLSQSize }),
		sizeField("l1.size", "L1 capacity in bytes (accepts 32K etc.)", func(c *Config) *int { return &c.L1.SizeBytes }),
		intField("l1.ways", "L1 associativity", func(c *Config) *int { return &c.L1.Ways }),
		intField("l1.line", "L1 line size in bytes", func(c *Config) *int { return &c.L1.LineBytes }),
		intField("l1.latency", "L1 hit latency (cycles)", func(c *Config) *int { return &c.L1.LatencyCycles }),
		sizeField("l2.size", "L2 capacity in bytes (accepts 2M etc.)", func(c *Config) *int { return &c.L2.SizeBytes }),
		intField("l2.ways", "L2 associativity", func(c *Config) *int { return &c.L2.Ways }),
		intField("l2.line", "L2 line size in bytes", func(c *Config) *int { return &c.L2.LineBytes }),
		intField("l2.latency", "L2 hit latency (cycles)", func(c *Config) *int { return &c.L2.LatencyCycles }),
		intField("mem.latency", "main-memory latency (cycles)", func(c *Config) *int { return &c.MemLatency }),
		intField("bus.oneway", "CP<->MP one-way bus latency (cycles)", func(c *Config) *int { return &c.BusOneWay }),
		intField("mesh.hop", "per-hop mesh latency (cycles)", func(c *Config) *int { return &c.MeshHop }),
		enumField("noc.model", "interconnect timing model", &nocNames, func(c *Config) *NoCModel { return &c.NoC }),
		intField("noc.linkwidth", "contended-fabric messages per link per cycle", func(c *Config) *int { return &c.NoCLinkWidth }),
		enumField("place.policy", "epoch->bank placement", &placeNames, func(c *Config) *PlacePolicy { return &c.Place }),
		enumField("class.policy", "execution-locality classifier", &classNames, func(c *Config) *ClassPolicy { return &c.Class }),
		intField("class.bits", "predictor-table index width (bits)", func(c *Config) *int { return &c.ClassTableBits }),
		enumField("ert", "ELSQ global-disambiguation filter", &ertNames, func(c *Config) *ERTKind { return &c.ERT }),
		intField("ert.bits", "hash-ERT index width (bits)", func(c *Config) *int { return &c.ERTHashBits }),
		{
			Name: "sqm", Doc: "Store Queue Mirror: true | false",
			Set: func(c *Config, v string) error {
				b, err := parseBool(v)
				if err != nil {
					return fmt.Errorf("config: field sqm: %v", err)
				}
				c.SQM = b
				return nil
			},
			Get: func(c *Config) string { return strconv.FormatBool(c.SQM) },
		},
		enumField("disamb", "disambiguation model", &disambNames, func(c *Config) *Disambiguation { return &c.Disamb }),
		intField("ssbf.bits", "SSBF index width (bits, SVW only)", func(c *Config) *int { return &c.SSBFBits }),
		enumField("svw", "SVW variant", &svwNames, func(c *Config) *SVWVariant { return &c.SVW }),
		intField("migrate.threshold", "low-locality migration slack (cycles)", func(c *Config) *int { return &c.MigrateThreshold }),
		intField("mispredict.penalty", "front-end redirect cost (cycles)", func(c *Config) *int { return &c.MispredictPenalty }),
		uint64Field("insts", "measured instructions per benchmark", func(c *Config) *uint64 { return &c.MaxInsts }),
		uint64Field("warmup", "functional warm-up instructions", func(c *Config) *uint64 { return &c.WarmupInsts }),
		intField("sample.intervals", "SimPoint-style measured intervals per benchmark (1 = contiguous)", func(c *Config) *int { return &c.SampleIntervals }),
		uint64Field("sample.bleed", "functional fast-forward between sample intervals", func(c *Config) *uint64 { return &c.SampleBleedInsts }),
		{
			Name: "trace", Doc: "drive the run from this recorded .elt trace file (empty = live generation)",
			Set: func(c *Config, v string) error {
				// A new path invalidates any previously resolved digest; the
				// runner (sweep.Grid.Expand, bench) re-resolves before keying.
				c.TracePath = v
				c.TraceDigest = ""
				return nil
			},
			Get: func(c *Config) string { return c.TracePath },
		},
		{
			Name: "energy.table", Doc: "energy/area coefficient table for the post-run energy model: base | hp | lp (observational only, never affects timing)",
			Set: func(c *Config, v string) error { c.EnergyTable = v; return nil },
			Get: func(c *Config) string { return c.EnergyTable },
		},
	}
}

// fieldIndex builds the by-name lookup once: FieldByName sits on the grid
// expansion hot path (once per axis per grid point).
var fieldIndex = sync.OnceValue(func() map[string]FieldSpec {
	m := make(map[string]FieldSpec)
	for _, f := range fieldRegistry() {
		m[f.Name] = f
	}
	return m
})

// Fields returns every sweepable field, sorted by name.
func Fields() []FieldSpec {
	fs := fieldRegistry()
	sort.Slice(fs, func(i, j int) bool { return fs[i].Name < fs[j].Name })
	return fs
}

// FieldByName returns the field with the given canonical name.
func FieldByName(name string) (FieldSpec, error) {
	if f, ok := fieldIndex()[name]; ok {
		return f, nil
	}
	return FieldSpec{}, fmt.Errorf("config: unknown field %q (see config.Fields or elsqsweep -fields)", name)
}

// SetField parses value and assigns it to the named field of c.
func SetField(c *Config, name, value string) error {
	f, err := FieldByName(name)
	if err != nil {
		return err
	}
	return f.Set(c, value)
}
