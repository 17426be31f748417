package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file folds a runtime/pprof CPU profile by package without the
// pprof tool: it decodes just enough of the gzipped profile.proto
// message (samples, locations, functions, string table) to charge each
// sample's CPU time to the package of its innermost function.

// leafSample is one profile sample: the innermost function and the CPU
// nanoseconds charged to it.
type leafSample struct {
	function string
	nanos    int64
}

// Field numbers of profile.proto (github.com/google/pprof).
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// pbField is one decoded protobuf field: a varint or a byte slice.
type pbField struct {
	num   int
	wire  int
	varnt uint64
	bytes []byte
}

// pbFields decodes one message's fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return nil, errors.New("bad varint")
			}
			f.varnt, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("bad length")
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// varints returns a repeated integer field's values, packed or not.
func varints(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.varnt}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// decodeProfile returns every sample of a gzipped CPU profile with its
// innermost (first inlined) function name.
func decodeProfile(gz []byte) ([]leafSample, error) {
	if len(gz) == 0 {
		return nil, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFunc := map[uint64]uint64{}  // location id -> innermost function id
	type rawSample struct{ loc, nanos uint64 }
	var samples []rawSample
	for _, f := range top {
		switch f.num {
		case profStringTable:
			strs = append(strs, string(f.bytes))
		case profFunction:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, s := range sub {
				switch s.num {
				case functionID:
					id = s.varnt
				case functionName:
					name = s.varnt
				}
			}
			funcName[id] = name
		case profLocation:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			haveLine := false
			for _, s := range sub {
				switch {
				case s.num == locationID:
					id = s.varnt
				case s.num == locationLine && !haveLine:
					line, err := pbFields(s.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == lineFunction {
							fn, haveLine = l.varnt, true
						}
					}
				}
			}
			locFunc[id] = fn
		case profSample:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var locs, vals []uint64
			for _, s := range sub {
				switch s.num {
				case sampleLocationID:
					v, err := varints(s)
					if err != nil {
						return nil, err
					}
					locs = append(locs, v...)
				case sampleValue:
					v, err := varints(s)
					if err != nil {
						return nil, err
					}
					vals = append(vals, v...)
				}
			}
			if len(locs) == 0 || len(vals) == 0 {
				continue
			}
			// Values are [samples/count, cpu/nanoseconds].
			samples = append(samples, rawSample{loc: locs[0], nanos: vals[len(vals)-1]})
		}
	}
	out := make([]leafSample, 0, len(samples))
	for _, s := range samples {
		name := ""
		if idx, ok := funcName[locFunc[s.loc]]; ok && int(idx) < len(strs) {
			name = strs[idx]
		}
		out = append(out, leafSample{function: name, nanos: int64(s.nanos)})
	}
	return out, nil
}

// packageOf maps a fully qualified function name to the layer it is
// charged to: the package name under strandweaver/internal, "runtime"
// for the Go runtime, and "other" for everything else.
func packageOf(fn string) string {
	const internal = "strandweaver/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// foldByPackage returns each hostPackages entry's share of the samples'
// CPU time (absent packages read 0).
func foldByPackage(samples []leafSample) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for _, s := range samples {
		total += s.nanos
		by[packageOf(s.function)] += s.nanos
	}
	out := map[string]float64{}
	for _, p := range hostPackages {
		if total > 0 {
			out[p] = float64(by[p]) / float64(total)
		} else {
			out[p] = 0
		}
	}
	return out
}
