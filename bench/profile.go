package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"
)

// Layers the CPU and allocation profiles are split into: the repo's
// packages by their last path element ("drrgossip" is the pipeline
// package internal/drrgossip), the root package as "facade", the Go
// runtime, and everything else (std library, the benchmark itself).
var layers = []string{
	"sim", "bitset", "xrand", "drr", "localdrr", "forest", "convergecast", "gossip",
	"drrgossip", "overlay", "chord", "graph", "faults", "facade", "runtime", "other",
}

// allocLayers are the layers whose allocated bytes are reported.
var allocLayers = []string{
	"sim", "localdrr", "drr", "convergecast", "gossip", "drrgossip",
	"overlay", "chord", "graph", "forest", "faults", "facade",
}

// layerOf maps a symbol name such as
// "drrgossip/internal/sim.(*Engine).Tick" to its layer.
func layerOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "drrgossip":
		return "facade"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	if name, ok := strings.CutPrefix(pkg, "drrgossip/internal/"); ok {
		for _, l := range layers {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

// layerMeter collects the traced queries' CPU profile and runtime
// counters, and the allocation profile over all timed queries.
type layerMeter struct {
	cpu     bytes.Buffer       // the profile of the traced query in flight
	cpuSec  map[string]float64 // flat CPU seconds by layer
	traced  []float64          // traced query wall times
	gc      runtimeSample      // runtime counter deltas over traced queries
	allocs0 map[[32]uintptr]runtime.MemProfileRecord
}

// startLayerMeter snapshots the allocation profile. The GC publishes
// every allocation made before it to the profile.
func startLayerMeter() *layerMeter {
	runtime.GC()
	return &layerMeter{cpuSec: map[string]float64{}, allocs0: memProfile()}
}

func (m *layerMeter) add(d time.Duration, r0, r1 runtimeSample) {
	m.traced = append(m.traced, d.Seconds())
	m.gc.gcCycles += r1.gcCycles - r0.gcCycles
	m.gc.gcCPU += r1.gcCPU - r0.gcCPU
	m.gc.totalCPU += r1.totalCPU - r0.totalCPU
}

// flushCPU folds the finished CPU profile into cpuSec.
func (m *layerMeter) flushCPU() error {
	err := cpuByLayer(m.cpu.Bytes(), m.cpuSec)
	m.cpu.Reset()
	return err
}

// finish computes the per-layer metrics, per traced query except for the
// allocation split, which covers all nAll queries of the loop (traced and
// untraced queries do identical work). untraced are the paired untraced
// query walls.
func (m *layerMeter) finish(tr *tracer, untraced []float64, nAll int) map[string]float64 {
	runtime.GC()
	allocs := allocByLayer(m.allocs0, memProfile())
	nq := float64(len(m.traced))
	out := tr.spanMetrics(len(m.traced))
	for _, l := range layers {
		out["cpu."+l+"_s"] = m.cpuSec[l] / nq
	}
	for _, l := range allocLayers {
		out["alloc."+l+"_mb"] = allocs[l] / float64(nAll) / 1e6
	}
	out["runtime.gc_cycles"] = float64(m.gc.gcCycles) / nq
	out["runtime.gc_cpu_frac"] = m.gc.gcCPU / m.gc.totalCPU
	out["trace.overhead_x"] = lowerQuartile(m.traced) / lowerQuartile(untraced)
	return out
}

func memProfile() map[[32]uintptr]runtime.MemProfileRecord {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	// Records are kept per full stack, but MemProfileRecord holds only its
	// first 32 frames, so deep call chains share a key: sum them.
	out := make(map[[32]uintptr]runtime.MemProfileRecord, n)
	for _, r := range recs[:n] {
		acc := out[r.Stack0]
		acc.Stack0 = r.Stack0
		acc.AllocBytes += r.AllocBytes
		acc.AllocObjects += r.AllocObjects
		out[r.Stack0] = acc
	}
	return out
}

// allocByLayer attributes the bytes allocated between two profile
// snapshots to the layer of the allocating function: the innermost frame
// outside the runtime, as `go tool pprof` shows heap profiles. Sampled
// bytes are unbiased the way pprof scales them.
func allocByLayer(before, after map[[32]uintptr]runtime.MemProfileRecord) map[string]float64 {
	rate := float64(runtime.MemProfileRate)
	out := map[string]float64{}
	for stk, r := range after {
		bytes := float64(r.AllocBytes - before[stk].AllocBytes)
		objs := float64(r.AllocObjects - before[stk].AllocObjects)
		if objs <= 0 || bytes <= 0 {
			continue
		}
		if rate > 1 {
			bytes /= 1 - math.Exp(-bytes/objs/rate)
		}
		out[allocLayer(r.Stack())] += bytes
	}
	return out
}

func allocLayer(stk []uintptr) string {
	frames := runtime.CallersFrames(stk)
	first := ""
	for {
		f, more := frames.Next()
		if first == "" {
			first = f.Function
		}
		if !strings.HasPrefix(f.Function, "runtime.") {
			return layerOf(f.Function)
		}
		if !more {
			return layerOf(first)
		}
	}
}

// cpuByLayer decodes a gzipped pprof CPU profile and adds each sample's
// CPU time to the layer of its leaf function (flat time). It reads only
// the protobuf fields it needs: sample_type, sample, location, function
// and string_table (profile.proto field numbers 1, 2, 4, 5 and 6).
func cpuByLayer(data []byte, into map[string]float64) error {
	if len(data) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf   uint64 // location id of the innermost frame
		values []uint64
	}
	var (
		types    [][2]uint64           // sample_type (type, unit) string indexes
		samples  []sample              // in profile order
		leafFunc = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]uint64{} // function id -> name string index
		strs     []string              // string_table
	)
	err = eachField(raw, func(f uint64, v uint64, b []byte) error {
		switch f {
		case 1:
			var vt [2]uint64
			types = append(types, vt)
			return eachField(b, func(f, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					types[len(types)-1][f-1] = v
				}
				return nil
			})
		case 2:
			var s sample
			err := eachField(b, func(f, v uint64, b []byte) error {
				xs, err := varints(v, b)
				switch {
				case f == 1 && s.leaf == 0 && len(xs) > 0: // location ids start at 1
					s.leaf = xs[0]
				case f == 2:
					s.values = append(s.values, xs...)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4:
			var id, fn uint64
			lines := 0
			err := eachField(b, func(f, v uint64, b []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && lines == 0: // the first line is the innermost inlined frame
					lines++
					return eachField(b, func(f, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			leafFunc[id] = fn
			return err
		case 5:
			var id, name uint64
			err := eachField(b, func(f, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	col := -1
	for i, t := range types {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return errors.New("cpu profile: no cpu/nanoseconds sample type")
	}
	for _, s := range samples {
		if col < len(s.values) {
			into[layerOf(str(funcName[leafFunc[s.leaf]]))] += float64(s.values[col]) / 1e9
		}
	}
	return nil
}

// eachField walks the fields of one protobuf message, calling fn with
// the field number and, by wire type, the varint value (b nil) or the
// length-delimited bytes. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(field, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field := key >> 3
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(msg) < w {
				return errors.New("short fixed-width field")
			}
			msg = msg[w:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("bad length")
			}
			b := msg[n : n+int(l) : n+int(l)]
			msg = msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
			if err := fn(field, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}

// varints returns a repeated varint field's elements: the single value v
// of an unpacked field (b nil), or every varint of a packed one.
func varints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return out, errors.New("bad packed varint")
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
