package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// hostLayers are the self-time buckets the traced run reports as
// host.<name>: the simulator modules, the service modules, and the
// standard-library layers the service spends time in.
var hostLayers = []string{
	"cache", "sim", "core", "isa", "gpu", "llc", "noc", "coh", "runtime",
	"json", "net", "serve", "cellcache", "compress",
}

// packageOf returns the import path of a profiled function name such
// as "stash/internal/cache.(*Cache).access" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps an import path to its host layer. Packages that only
// carry a call to the kernel (syscall, poll, os) return "": their time
// belongs to the caller that asked for the I/O, so a pairtree fsync
// counts as cellcache and a socket write as net.
func layerOf(pkg string) string {
	switch {
	case pkg == "syscall", pkg == "os", pkg == "internal/poll",
		strings.HasPrefix(pkg, "internal/syscall/"), pkg == "internal/runtime/syscall":
		return ""
	case strings.HasPrefix(pkg, "stash/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "stash/internal/"), "/")
		return name
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "encoding/json":
		return "json"
	case pkg == "net", strings.HasPrefix(pkg, "net/"), strings.HasPrefix(pkg, "vendor/golang.org/x/net/"):
		return "net"
	case strings.HasPrefix(pkg, "compress/"), pkg == "hash/crc32":
		return "compress"
	}
	return "other:" + pkg
}

// layerShares decodes a gzipped pprof CPU profile and returns each
// layer's share of self time: a sample counts toward the layer of its
// innermost frame, skipping the kernel-call packages layerOf leaves
// unassigned. The shares of all layers, "other:" ones included, sum
// to 1.
func layerShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	weight := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		layer := ""
		var leafPkg string
	frames:
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				pkg := packageOf(p.strings[p.functions[fn]])
				if leafPkg == "" {
					leafPkg = pkg
				}
				if layer = layerOf(pkg); layer != "" {
					break frames
				}
			}
		}
		if layer == "" {
			layer = "other:" + leafPkg
		}
		weight[layer] += s.value
		total += s.value
	}
	if total == 0 {
		return nil, errors.New("profile holds no samples")
	}
	shares := make(map[string]float64, len(weight))
	for layer, w := range weight {
		shares[layer] = float64(w) / float64(total)
	}
	return shares, nil
}

// profile is the part of a pprof profile layerShares needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location ID -> function IDs, innermost first
	functions map[uint64]int64    // function ID -> name string index
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	value     int64    // the last sample value (CPU nanoseconds)
}

// decodeProfile parses the protobuf encoding of profile.proto, reading
// only the fields layerShares uses.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var values []uint64
			err := eachField(msg, func(num int, v uint64, packed []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locations, v, packed)
				case 2:
					return appendVarints(&values, v, packed)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, line []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding profile: %w", err)
	}
	for _, name := range p.functions {
		if name < 0 || int(name) >= len(p.strings) {
			return nil, fmt.Errorf("decoding profile: function name index %d outside the string table", name)
		}
	}
	return p, nil
}

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, given either one
// unpacked value or a packed run.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

// uvarint decodes a base-128 varint, returning n <= 0 on malformed
// input.
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
