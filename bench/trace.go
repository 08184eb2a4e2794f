package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// spanLog keeps the spans the benchmark records around its own calls into
// the program. Spans stay in memory and are summed when the child reports.
type spanLog struct {
	spans []span
}

type span struct {
	name       string
	start, end time.Time
}

// begin opens a span; the returned func closes it.
func (l *spanLog) begin(name string) func() {
	start := time.Now()
	return func() { l.spans = append(l.spans, span{name, start, time.Now()}) }
}

// ms returns the total duration of the spans called name, in milliseconds.
func (l *spanLog) ms(name string) float64 {
	var d time.Duration
	for _, s := range l.spans {
		if s.name == name {
			d += s.end.Sub(s.start)
		}
	}
	return float64(d.Nanoseconds()) / 1e6
}

// ---- CPU profile -> per-layer shares ---------------------------------------

// ledgerLayers are the cpu_share.* rows: the program's layers by their
// internal/ package name, the runtime split in two, and the benchmark.
var ledgerLayers = []string{
	"smpi", "simix", "surf", "lmm", "platform", "topology", "experiments",
	"campaign", "service", "sampling", "nas", "emu", "core", "internal_other",
	"runtime_gc", "runtime_other", "bench",
}

const internalPrefix = "smpigo/internal/"

// gcFrames mark a stack without program frames as garbage collection.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcAssistAlloc", "runtime.gcMarkTermination", "runtime.gcStart", "runtime.sweepone",
}

// layerOf attributes one stack (function names, leaf first) to the deepest
// frame that belongs to the program: smpigo/internal/<pkg> gives <pkg>, the
// benchmark's own main package gives "bench". A stack of runtime and
// standard-library frames only is "runtime_gc" when a collector frame is on
// it and "runtime_other" otherwise.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			for _, l := range ledgerLayers {
				if l == pkg {
					return pkg
				}
			}
			return "internal_other"
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	for _, fn := range stack {
		for _, gc := range gcFrames {
			if strings.HasPrefix(fn, gc) {
				return "runtime_gc"
			}
		}
	}
	return "runtime_other"
}

// stackSample is one profile sample: its stack, leaf first, and its weight.
type stackSample struct {
	stack []string
	value int64
}

// cpuShares attributes every sample to a layer and returns each layer's
// share of the total; the shares sum to 1. No samples gives all zeros.
func cpuShares(samples []stackSample) map[string]float64 {
	shares := make(map[string]float64, len(ledgerLayers))
	for _, l := range ledgerLayers {
		shares[l] = 0
	}
	var total float64
	for _, s := range samples {
		shares[layerOf(s.stack)] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= total
		}
	}
	return shares
}

// parseProfile decodes a gzipped pprof protobuf, as runtime/pprof writes it,
// into stacks of function names weighted by the last sample value (CPU
// nanoseconds). Only the fields attribution needs are read:
//
//	Profile:  sample=2 location=4 function=5 string_table=6
//	Sample:   location_id=1 value=2
//	Location: id=1 line=4      Line: function_id=1
//	Function: id=1 name=2
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s rawSample
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5:
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					st.stack = append(st.stack, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. Varint fields arrive
// in v with b nil; length-delimited fields arrive in b.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field: one value when it came
// unpacked (b nil), or every varint of the packed bytes.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
