package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// This file decodes the pprof CPU profiles the traced run takes (the
// gzipped profile.proto that runtime/pprof writes and /debug/pprof/profile
// serves) just far enough to attribute each sample to a layer.

// cpuShares returns each layer's share of the profile's sampled CPU time,
// keyed by the names in cpuLayers.
func cpuShares(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	by := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcName[fn]])
			}
		}
		by[layerOf(stack)] += v
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile holds no samples")
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		shares[l] = by[l] / total
	}
	return shares, nil
}

// httpJSON are the standard-library packages that make up the HTTP and
// JSON layer.
var httpJSON = map[string]bool{
	"net": true, "net/http": true, "net/textproto": true, "net/netip": true,
	"bufio": true, "encoding/json": true, "mime": true,
	"compress/gzip": true, "compress/flate": true,
}

// layerOf attributes one sampled stack (leaf first). A leaf in a
// safemem/internal package or the Go runtime is that layer's self time.
// Any other leaf (strconv, sort, syscall, ...) is charged to the nearest
// caller that is a safemem/internal package or the HTTP/JSON layer.
func layerOf(stack []string) string {
	for i, fn := range stack {
		pkg := pkgOf(fn)
		if l, ok := internalLayer(pkg); ok {
			return l
		}
		if i == 0 && (pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")) {
			return "runtime"
		}
		if httpJSON[pkg] {
			return "http_json"
		}
	}
	return "other"
}

// internalLayer maps safemem/internal/<pkg>[/...] to its layer.
func internalLayer(pkg string) (string, bool) {
	rest, ok := strings.CutPrefix(pkg, "safemem/internal/")
	if !ok {
		return "", false
	}
	name, _, _ := strings.Cut(rest, "/")
	for _, l := range cpuLayers {
		if l == name {
			return l, true
		}
	}
	return "other", true
}

// pkgOf returns the import path of a Go function symbol such as
// "safemem/internal/cache.(*Cache).findIdx".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	strings  []string
	funcName map[uint64]int64    // function id → name string index
	locFuncs map[uint64][]uint64 // location id → function ids, inlined leaf first
	samples  []sample
}

type sample struct {
	locs   []uint64 // location ids, leaf first
	values []int64
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{funcName: map[uint64]int64{}, locFuncs: map[uint64][]uint64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, n := range p.funcName {
		if n < 0 || int(n) >= len(p.strings) {
			return nil, fmt.Errorf("cpu profile: function name index %d out of range", n)
		}
	}
	return p, nil
}

// appendPacked appends a repeated integer field that arrived either as one
// varint (v, b == nil) or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			field := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, field); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
