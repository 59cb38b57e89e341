package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// Profile buckets beyond the individually reported layers.
const (
	bucketRest  = "nymix.other" // nymix layers too rarely sampled to list
	bucketGC    = "runtime.gc"
	bucketOther = "runtime.other"
)

var errBadProfile = errors.New("malformed profile")

// cpuByBucket decodes a gzipped pprof CPU profile (the profile.proto
// format runtime/pprof writes) and returns CPU seconds per bucket. A
// sample belongs to the layer of its leaf-most nymix/internal frame, so
// allocation and GC assists count toward the layer that allocated.
// Samples with no nymix frame go to runtime.gc when a garbage-collector
// frame is on the stack and to runtime.other otherwise.
func cpuByBucket(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs    []string
		samples []sample
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(data, func(num int, v uint64, data []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendUvarints(s.locs, v, data)
				case 2:
					s.values, err = appendUvarints(s.values, v, data)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fn uint64) string {
		if i := funcs[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := map[string]float64{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		// CPU profiles carry [samples, cpu nanoseconds]; the last value
		// is the time.
		out[bucketOf(s.locs, locs, name)] += float64(s.values[len(s.values)-1]) / 1e9
	}
	return out, nil
}

// bucketOf walks a sample's stack from the leaf and names its bucket.
func bucketOf(stack []uint64, locs map[uint64][]uint64, name func(uint64) string) string {
	gc := false
	for _, loc := range stack {
		for _, fn := range locs[loc] {
			n := name(fn)
			if layer, ok := strings.CutPrefix(n, "nymix/internal/"); ok {
				if i := strings.IndexAny(layer, "/."); i >= 0 {
					layer = layer[:i]
				}
				return layer
			}
			if strings.HasPrefix(n, "runtime.gc") || strings.HasPrefix(n, "runtime.bgsweep") ||
				strings.HasPrefix(n, "runtime.bgscavenge") {
				gc = true
			}
		}
	}
	if gc {
		return bucketGC
	}
	return bucketOther
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited payload.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0: // varint
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errBadProfile
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(b) < 8 {
				return errBadProfile
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProfile
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5: // fixed32
			if len(b) < 4 {
				return errBadProfile
			}
			b = b[4:]
		default:
			return errBadProfile
		}
	}
	return nil
}

// appendUvarints appends a repeated varint field's value: v when it was
// encoded unpacked, every varint in data when packed.
func appendUvarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errBadProfile
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}
