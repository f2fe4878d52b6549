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

// CPU attribution. A traced run's CPU profile is split into layers by the
// innermost stack frame that belongs to the repository: a frame in package
// olympian/internal/<module> counts to that module, a frame in the
// benchmark's own main package to "harness". A sample with no repository
// frame counts to runtime_gc when a garbage-collector frame is on its stack
// (background mark, sweep and scavenge workers) and to runtime_sched
// otherwise (futex, park, findRunnable: goroutine hand-offs and barriers).

const repoPrefix = "olympian/internal/"

// harnessPrefix names the benchmark's own package where it is compiled
// under its import path rather than as main, as in its tests.
const harnessPrefix = "olympian/perfbench."

// gcFrames mark a stack as garbage-collector work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcMark", "runtime.gcStart",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.markroot", "runtime.scanobject", "runtime.scanstack",
}

// bucket names the layer a stack sample counts to; frames are leaf first.
func bucket(frames []string) string {
	gc := false
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, harnessPrefix) {
			return "harness"
		}
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				gc = true
			}
		}
	}
	if gc {
		return "runtime_gc"
	}
	return "runtime_sched"
}

// shares turns per-bucket sample counts into fractions of the total.
func shares(counts map[string]int64) map[string]float64 {
	var total int64
	for _, n := range counts {
		total += n
	}
	out := make(map[string]float64, len(counts))
	if total == 0 {
		return out
	}
	for b, n := range counts {
		out[b] = float64(n) / float64(total)
	}
	return out
}

// attribute reads a gzip-compressed pprof CPU profile, as written by
// runtime/pprof, and returns its sample counts per bucket.
func attribute(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				name := p.functions[fn]
				if name < 0 || int(name) >= len(p.strings) {
					return nil, fmt.Errorf("function %d names string %d of %d", fn, name, len(p.strings))
				}
				frames = append(frames, p.strings[name])
			}
		}
		counts[bucket(frames)] += s.count
	}
	return counts, nil
}

// The subset of profile.proto (github.com/google/pprof) the attribution
// needs: samples' location ids and first value, locations' inlined function
// ids (innermost first), function names, and the string table.
type profileData struct {
	samples   []profileSample
	locations map[uint64][]uint64 // location id -> function ids
	functions map[uint64]int64    // function id -> string-table index
	strings   []string
}

type profileSample struct {
	locations []uint64 // leaf first
	count     int64
}

// Field numbers in profile.proto.
const (
	fProfileSample    = 2
	fProfileLocation  = 4
	fProfileFunction  = 5
	fProfileString    = 6
	fSampleLocationID = 1
	fSampleValue      = 2
	fLocationID       = 1
	fLocationLine     = 4
	fLineFunctionID   = 1
	fFunctionID       = 1
	fFunctionName     = 2
)

func parseProfile(raw []byte) (*profileData, error) {
	p := &profileData{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := pbFields(raw, func(f pbField) error {
		switch f.num {
		case fProfileSample:
			var s profileSample
			var values []uint64
			err := pbFields(f.data, func(g pbField) (err error) {
				switch g.num {
				case fSampleLocationID:
					s.locations, err = pbUints(s.locations, g)
				case fSampleValue:
					values, err = pbUints(values, g)
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
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case fLocationID:
					id = g.v
				case fLocationLine:
					return pbFields(g.data, func(h pbField) error {
						if h.num == fLineFunctionID {
							fns = append(fns, h.v)
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
		case fProfileFunction:
			var id uint64
			var name int64
			err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case fFunctionID:
					id = g.v
				case fFunctionName:
					name = int64(g.v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case fProfileString:
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	return p, err
}

var errMalformed = errors.New("malformed protobuf")

// pbField is one protobuf field: a varint value or a length-delimited
// payload. Fixed-width fields are skipped.
type pbField struct {
	num  int
	wire int
	v    uint64
	data []byte
}

// pbFields calls f for each field of a protobuf message.
func pbFields(b []byte, f func(pbField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errMalformed
		}
		b = b[n:]
		fld := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch fld.wire {
		case 0:
			if fld.v, n = binary.Uvarint(b); n <= 0 {
				return errMalformed
			}
			b = b[n:]
		case 1, 5:
			width := 8
			if fld.wire == 5 {
				width = 4
			}
			if len(b) < width {
				return errMalformed
			}
			b = b[width:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errMalformed
			}
			fld.data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return errMalformed
		}
		if err := f(fld); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends the values of a repeated varint field, packed or not.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errMalformed
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}
