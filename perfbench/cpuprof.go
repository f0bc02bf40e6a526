package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the packages the profile's flat samples are charged to,
// in report order; "other" takes the rest.
var cpuBuckets = []string{"sim", "netem", "quic", "cc", "httpsim", "server", "dash",
	"player", "abr", "qoe", "obs", "invariant", "runtime", "other"}

// bucketOf maps a fully qualified function name to its cpu bucket; ok is
// false for a standard-library helper, which is charged to its caller.
func bucketOf(fn string) (bucket string, ok bool) {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime", true
	}
	if name, ok := strings.CutPrefix(pkg, "voxel/internal/"); ok {
		for _, b := range cpuBuckets {
			if b == name {
				return b, true
			}
		}
		return "other", true
	}
	if pkg == "main" || strings.HasPrefix(pkg, "voxel") {
		return "other", true
	}
	return "", false
}

// cpuByBucket decodes a gzipped pprof CPU profile and sums its samples by
// bucket. A sample goes to the package of its innermost function, except
// that standard-library helpers (math, sort, fmt, encoding/xml, time, ...)
// are charged to the nearest caller in this repository or the runtime.
// Samples with no such frame go to "other".
func cpuByBucket(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		bucket := "other"
	frames:
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				if idx, ok := p.funcName[fid]; ok && idx < uint64(len(p.strings)) {
					if b, ok := bucketOf(p.strings[idx]); ok {
						bucket = b
						break frames
					}
				}
			}
		}
		out[bucket] += s.values[0]
	}
	return out, nil
}

// The subset of profile.proto the bucketing needs.
type pbSample struct {
	locs   []uint64
	values []int64
}

type pbProfile struct {
	samples  []pbSample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost (inlined) first
	funcName map[uint64]uint64   // function id → string table index
	strings  []string
}

var errTruncated = errors.New("truncated protobuf")

// pbReader walks protobuf wire format.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("varint overflow")
}

// field returns the next field's number, wire type, varint value (wire
// type 0) or payload (wire type 2).
func (r *pbReader) field() (num int, wt int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, 0, nil, errTruncated
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("wire type %d", wt)
	}
	return num, wt, v, payload, err
}

// repeatedVarints appends a repeated varint field, packed or not.
func repeatedVarints(dst []uint64, wt int, v uint64, payload []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	r := pbReader{payload}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	r := pbReader{b}
	for len(r.b) > 0 {
		num, _, _, payload, err := r.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // sample
			var s pbSample
			var vals []uint64
			sr := pbReader{payload}
			for len(sr.b) > 0 {
				n, wt, v, pl, err := sr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					if s.locs, err = repeatedVarints(s.locs, wt, v, pl); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = repeatedVarints(vals, wt, v, pl); err != nil {
						return nil, err
					}
				}
			}
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			lr := pbReader{payload}
			for len(lr.b) > 0 {
				n, _, v, pl, err := lr.field()
				if err != nil {
					return nil, err
				}
				switch {
				case n == 1:
					id = v
				case n == 4: // line
					ln := pbReader{pl}
					for len(ln.b) > 0 {
						fn, _, fv, _, err := ln.field()
						if err != nil {
							return nil, err
						}
						if fn == 1 {
							funcs = append(funcs, fv)
						}
					}
				}
			}
			p.locFuncs[id] = funcs
		case 5: // function
			var id, name uint64
			fr := pbReader{payload}
			for len(fr.b) > 0 {
				n, _, v, _, err := fr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			p.funcName[id] = name
		case 6: // string table
			p.strings = append(p.strings, string(payload))
		}
	}
	return p, nil
}
