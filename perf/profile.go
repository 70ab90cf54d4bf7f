package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the modules a CPU-profile sample can be charged to, in report
// order. xrand counts as workload (it is the generators' RNG); "other" takes
// the repro modules without a layer of their own (simrun, experiments,
// stats, isa, config) and the benchmark's own code; "runtime" takes samples
// with no repro frame at all (GC workers, the scheduler).
var layers = []string{
	"runtime", "lsq", "sched", "cpu", "core", "filter", "mem", "workload", "trace",
	"predict", "noc", "fmc", "ckpt", "sweep", "batch", "svw", "energy", "other",
}

// moduleOf names the layer a function belongs to, or reports false for a
// function outside the repository (standard library, runtime).
func moduleOf(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return "other", true
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	if rest == "xrand" {
		return "workload", true
	}
	for _, l := range layers {
		if l == rest {
			return l, true
		}
	}
	return "other", true
}

// foldProfile reads a gzipped pprof CPU profile and charges each sample to
// the innermost frame that belongs to the repository: standard-library
// frames (compress/flate, crypto/sha256, the allocator) count toward the
// repro function that called them, and a sample with no repro frame counts
// as runtime. It returns sample counts per layer.
func foldProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		out[p.layerOf(s.locs)] += s.count
	}
	return out, nil
}

// profile is the subset of profile.proto the fold needs.
type profile struct {
	strs    []string
	funcs   map[uint64]int64    // function id -> name string index
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	samples []sample
}

// sample is one stack (leaf first) with its sample count.
type sample struct {
	locs  []uint64
	count int64
}

// layerOf charges a leaf-first stack to its innermost repro frame. Inlined
// calls appear as several lines of one location, innermost first.
func (p *profile) layerOf(stack []uint64) string {
	for _, loc := range stack {
		for _, fid := range p.locs[loc] {
			idx := p.funcs[fid]
			if idx < 0 || idx >= int64(len(p.strs)) {
				continue
			}
			if m, ok := moduleOf(p.strs[idx]); ok {
				return m
			}
		}
	}
	return "runtime"
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profStrings    = 6
	sampleLocation = 1
	sampleValue    = 2
	locID          = 1
	locLine        = 4
	lineFunction   = 1
	funcID         = 1
	funcName       = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{funcs: map[uint64]int64{}, locs: map[uint64][]uint64{}}
	err := fields(b, func(f int, v uint64, data []byte) error {
		switch f {
		case profSample:
			var s sample
			var values []uint64
			err := fields(data, func(f int, v uint64, data []byte) (err error) {
				switch f {
				case sampleLocation:
					s.locs, err = appendUints(s.locs, v, data)
				case sampleValue:
					values, err = appendUints(values, v, data)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fids []uint64
			err := fields(data, func(f int, v uint64, data []byte) error {
				switch f {
				case locID:
					id = v
				case locLine:
					return fields(data, func(f int, v uint64, _ []byte) error {
						if f == lineFunction {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locs[id] = fids
		case profFunction:
			var id uint64
			var name int64
			err := fields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = name
		case profStrings:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// fields walks the fields of one protobuf message, handing fn the field
// number and either its scalar value (varint and fixed wire types) or its
// bytes (length-delimited).
func fields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints decodes a repeated varint field, which encoders write either
// one value per field (data == nil) or packed into one length-delimited run.
func appendUints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errTruncated
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
