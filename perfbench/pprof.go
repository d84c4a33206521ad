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

// This file decodes the gzipped profile.proto that runtime/pprof writes,
// just far enough to attribute sample values to Go packages. It uses only
// the standard library, so the benchmark adds no module dependency.

var errProfile = errors.New("malformed profile")

// moduleTotals sums the named sample value of a profile by the module (see
// moduleOf) of each sample's leaf frame — its innermost, possibly inlined,
// function — and returns the per-module totals and their grand total.
func moduleTotals(gz []byte, sampleType string) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	idx := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == sampleType {
			idx = i
		}
	}
	if idx < 0 {
		return nil, 0, fmt.Errorf("profile: no %q sample type: %w", sampleType, errProfile)
	}
	totals := map[string]float64{}
	var sum float64
	for _, s := range p.samples {
		if idx >= len(s.values) || len(s.locations) == 0 {
			continue
		}
		v := float64(s.values[idx])
		sum += v
		if loc := p.locations[s.locations[0]]; len(loc) > 0 {
			totals[moduleOf(packageOf(p.str(p.functions[loc[0]])))] += v
		}
	}
	return totals, sum, nil
}

// packageOf returns the import path of a symbol such as
// "eagletree/internal/wl.(*Leveler).Victims" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// moduleOf maps an import path to the layer name metrics use: the package
// under eagletree/internal, "runtime" for the Go runtime, "" otherwise.
func moduleOf(pkg string) string {
	if m, ok := strings.CutPrefix(pkg, "eagletree/internal/"); ok {
		return m
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return ""
}

type profile struct {
	strings     []string
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, leaf first
	functions   map[uint64]int64    // function id -> name string index
}

type sample struct {
	locations []uint64
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers from profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileString     = 6

	fValueTypeType = 1

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case fProfileSampleType:
			var typ int64
			if err := eachField(sub, func(n, _ int, v uint64, _ []byte) error {
				if n == fValueTypeType {
					typ = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.sampleTypes = append(p.sampleTypes, typ)
		case fProfileSample:
			var s sample
			if err := eachField(sub, func(n, w int, v uint64, packed []byte) error {
				switch n {
				case fSampleLocation:
					return appendVarints(w, v, packed, func(x uint64) { s.locations = append(s.locations, x) })
				case fSampleValue:
					return appendVarints(w, v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			if err := eachField(sub, func(n, _ int, v uint64, line []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(line, func(n, _ int, v uint64, _ []byte) error {
						if n == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case fProfileFunction:
			var id uint64
			var name int64
			if err := eachField(sub, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		case fProfileString:
			if wire != 2 {
				return errProfile
			}
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// appendVarints feeds a repeated integer field, packed (wire type 2) or
// not (wire type 0), to add.
func appendVarints(wire int, v uint64, packed []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	if wire != 2 {
		return errProfile
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errProfile
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message. Varint fields arrive
// in v, length-delimited ones in sub; fixed-width fields are skipped.
func eachField(b []byte, f func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProfile
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			b = b[4:]
			continue
		default:
			return errProfile
		}
		if err := f(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
