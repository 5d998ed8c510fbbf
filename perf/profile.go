package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof writes:
// enough of the format to recover, per sample, the call stack as function
// names (leaf first), the sample's values and its string labels.

type profSample struct {
	stack  []string // function names, leaf first, inlined frames expanded
	values []int64
	labels map[string]string
}

type profile struct {
	sampleTypes []string // e.g. "samples", "cpu"
	samples     []profSample
}

var errProfile = errors.New("malformed profile")

// protoBuf walks one protobuf message field by field.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, fmt.Errorf("%w: truncated varint", errProfile)
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("%w: varint overflow", errProfile)
}

// next returns the next field: its number, its varint value (wire type 0)
// or its bytes (wire type 2). Fixed-width fields are skipped over and
// reported with neither.
func (p *protoBuf) next() (field int, val uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = p.varint()
	case 1:
		err = p.skip(8)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, fmt.Errorf("%w: field %d overruns the message", errProfile, field)
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		err = p.skip(4)
	default:
		err = fmt.Errorf("%w: wire type %d", errProfile, key&7)
	}
	return field, val, data, err
}

func (p *protoBuf) skip(n int) error {
	if n > len(p.b) {
		return fmt.Errorf("%w: truncated fixed field", errProfile)
	}
	p.b = p.b[n:]
	return nil
}

// repeated appends a repeated integer field that may arrive packed (data)
// or one value at a time (val).
func repeated(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	p := protoBuf{data}
	for len(p.b) > 0 {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

type rawSample struct {
	locs   []uint64
	values []uint64
	labels [][2]uint64 // key, str (string-table indices)
}

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile gzip: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile gzip: %w", err)
	}

	var (
		strs      []string
		typeNames []uint64
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> name (string-table index)
	)
	msg := protoBuf{raw}
	for len(msg.b) > 0 {
		field, _, data, err := msg.next()
		if err != nil {
			return nil, err
		}
		sub := protoBuf{data}
		switch field {
		case 1: // sample_type: ValueType{type=1, unit=2}
			for len(sub.b) > 0 {
				f, v, _, err := sub.next()
				if err != nil {
					return nil, err
				}
				if f == 1 {
					typeNames = append(typeNames, v)
				}
			}
		case 2: // sample: Sample{location_id=1, value=2, label=3}
			var s rawSample
			for len(sub.b) > 0 {
				f, v, d, err := sub.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = repeated(s.locs, v, d)
				case 2:
					s.values, err = repeated(s.values, v, d)
				case 3: // Label{key=1, str=2}
					var kv [2]uint64
					lp := protoBuf{d}
					for len(lp.b) > 0 {
						lf, lv, _, lerr := lp.next()
						if lerr != nil {
							return nil, lerr
						}
						if lf == 1 || lf == 2 {
							kv[lf-1] = lv
						}
					}
					s.labels = append(s.labels, kv)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location: Location{id=1, line=4: Line{function_id=1}}
			var id uint64
			var funcs []uint64
			for len(sub.b) > 0 {
				f, v, d, err := sub.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4:
					lp := protoBuf{d}
					for len(lp.b) > 0 {
						lf, lv, _, lerr := lp.next()
						if lerr != nil {
							return nil, lerr
						}
						if lf == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case 5: // function: Function{id=1, name=2}
			var id, name uint64
			for len(sub.b) > 0 {
				f, v, _, err := sub.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}

	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("%w: string index %d of %d", errProfile, i, len(strs))
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, t := range typeNames {
		name, err := str(t)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, name)
	}
	for _, rs := range samples {
		s := profSample{labels: map[string]string{}}
		for _, v := range rs.values {
			s.values = append(s.values, int64(v))
		}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				name, err := str(funcNames[fn])
				if err != nil {
					return nil, err
				}
				s.stack = append(s.stack, name)
			}
		}
		for _, kv := range rs.labels {
			k, err := str(kv[0])
			if err != nil {
				return nil, err
			}
			if s.labels[k], err = str(kv[1]); err != nil {
				return nil, err
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// funcPackage returns the import path of a symbol name as the Go linker
// writes it: "hetmpc/internal/prims.Sort[go.shape.int]" -> "hetmpc/internal/prims".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold slashes and dots of their own
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// CPU buckets: one per repo layer, one per Go-runtime activity.
const (
	cpuOtherRepo    = "other_repo"
	cpuSyscall      = "syscall"
	cpuRuntimeGC    = "runtime_gc"
	cpuRuntimeAlloc = "runtime_alloc"
	cpuRuntimeSched = "runtime_sched"
	cpuOther        = "other"
)

var repoLayers = []string{"mpc", "wire", "sched", "fault", "trace", "metrics", "sketch", "graph", "core", "sublinear", "prims"}

var syscallPackages = []string{"syscall", "internal/runtime/syscall", "runtime/internal/syscall", "internal/poll", "internal/syscall/unix", "net", "os"}

// Frames that mark a runtime stack as collector, allocator or scheduler
// work. Matched as substrings of the function name anywhere in the stack.
var (
	gcFrames    = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcStart", "runtime.gcMark", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.(*mspan).sweep", "runtime.(*sweepLocked).sweep", "runtime.markroot", "runtime.scanobject", "runtime.wbBufFlush", "runtime.(*mheap).reclaim", "runtime.deductSweepCredit"}
	allocFrames = []string{"runtime.mallocgc", "runtime.memclr", "runtime.madvise", "runtime.sysUsed", "runtime.sysAlloc", "runtime.sysMap", "runtime.(*mheap).alloc"}
	schedFrames = []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall", "runtime.newproc", "runtime.goready", "runtime.ready", "runtime.wakep", "runtime.futex", "runtime.goexit0", "runtime.gopark", "runtime.netpoll", "runtime.mstart", "runtime.osyield", "runtime.usleep"}
)

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

func stackHas(stack []string, marks []string) bool {
	for _, fn := range stack {
		for _, m := range marks {
			if strings.HasPrefix(fn, m) {
				return true
			}
		}
	}
	return false
}

func packageBucket(pkg string) string {
	if layer, ok := strings.CutPrefix(pkg, "hetmpc/internal/"); ok {
		for _, l := range repoLayers {
			if layer == l {
				return l
			}
		}
		return cpuOtherRepo
	}
	if pkg == "hetmpc" {
		return cpuOtherRepo
	}
	for _, s := range syscallPackages {
		if pkg == s {
			return cpuSyscall
		}
	}
	return cpuOther
}

// cpuBucket places one sample. A leaf inside the Go runtime that is
// collector, allocator or scheduler work (judged by the frames above it)
// goes to that runtime bucket. Everything else goes to the innermost frame
// that names an owner — a repo layer or the syscall family — so memmove,
// map access and the standard library's sort are charged to the code that
// asked for them. Frames of the benchmark itself end the search.
func cpuBucket(stack []string) string {
	if len(stack) == 0 {
		return cpuOther
	}
	if leaf := funcPackage(stack[0]); isRuntime(leaf) && packageBucket(leaf) != cpuSyscall {
		switch {
		case stackHas(stack, gcFrames):
			return cpuRuntimeGC
		case stackHas(stack, allocFrames):
			return cpuRuntimeAlloc
		case stackHas(stack, schedFrames):
			return cpuRuntimeSched
		}
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if pkg == "main" || pkg == "hetmpc/perf" {
			break
		}
		if b := packageBucket(pkg); b != cpuOther {
			return b
		}
	}
	return cpuOther
}

// untimedLabel marks the goroutine while it validates outputs, so that the
// traced run's CPU shares cover the cells and not the checks around them.
const untimedLabel = "perf_untimed"

// cpuShares buckets the profile's CPU time and returns each bucket's share
// of the total, skipping samples taken under untimedLabel. A profile too
// short to hold a sample has no shares.
func cpuShares(p *profile) map[string]float64 {
	idx := slices.Index(p.sampleTypes, "cpu")
	shares := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if _, skip := s.labels[untimedLabel]; skip || idx < 0 || idx >= len(s.values) {
			continue
		}
		v := float64(s.values[idx])
		shares[cpuBucket(s.stack)] += v
		total += v
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares
}
