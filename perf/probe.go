package main

import (
	"fmt"
	"os"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The reference host is a shared microVM whose speed moves in episodes of
// about a minute: every cell of every workload launched in an episode runs
// slower, whatever the seed or the commit. No statistic taken inside a
// 30-second run can see past that, so the benchmark times a fixed piece of
// work — the speed probe — around every cell and reports host seconds
// scaled to the speed at which the probe takes probeRefSeconds. The probe
// shares no code with the simulator, so a faster engine cannot make the
// probe faster and cancel its own gain.
//
// The probe is half plain Go compute and half first-touch page faults. A
// compute-only probe under-corrected: across ten runs the simulator's log
// seconds moved about twice as far as the probe's (regression slope
// 1.7-2.1), because a busy host slows the allocator's page faults and
// memory traffic more than it slows arithmetic, and a third of the
// simulator's CPU time is memory management. README.md has the numbers.

// probeRefSeconds is the probe's duration on the reference host when it is
// quiet. It only fixes the unit: on a quiet reference host scaled seconds
// are wall-clock seconds.
const probeRefSeconds = 0.0065

const (
	probeSortLen   = 1 << 13 // 64 KiB of keys: sorted in cache, branch-bound
	probeTableLen  = 1 << 22 // 32 MiB table: dependent loads that miss L2
	probeGathers   = 1 << 14
	probeCopyWords = 1 << 17 // 1 MiB copied: streaming
	probeFaultLen  = 8 << 20 // 8 MiB dropped and touched again: 2048 page faults
	probeReps      = 3
)

// A probe holds the speed probe's buffers, mapped once so that probing
// never allocates and never triggers the collector.
type probe struct {
	keys   []uint64
	table  []uint64
	dst    []uint64
	fresh  []byte // its pages are given back before every use
	stride int
	sink   uint64
}

// newProbe maps the probe's buffers outside the Go heap: a 33 MiB live heap
// would be ballast, and the collector's pace is part of what is measured
// (it halves table1's wall_s).
func newProbe() (*probe, error) {
	const words = probeSortLen + probeTableLen + probeCopyWords
	mem, err := mapAnon(words * 8)
	if err != nil {
		return nil, err
	}
	all := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), words)
	p := &probe{
		keys:   all[:probeSortLen],
		table:  all[probeSortLen : probeSortLen+probeTableLen],
		dst:    all[probeSortLen+probeTableLen:],
		stride: os.Getpagesize(),
	}
	if p.fresh, err = mapAnon(probeFaultLen); err != nil {
		return nil, err
	}
	for i := range p.table {
		p.table[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return p, nil
}

func mapAnon(bytes int) ([]byte, error) {
	mem, err := syscall.Mmap(-1, 0, bytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map the speed probe's buffers: %w", err)
	}
	return mem, nil
}

// compute fills and sorts a cache-resident key array, chases dependent
// loads through the table and copies a block of it.
func (p *probe) compute() time.Duration {
	start := time.Now()
	x := p.sink | 1
	for i := range p.keys {
		x = x*6364136223846793005 + 1442695040888963407
		p.keys[i] = x
	}
	slices.Sort(p.keys)
	idx := p.keys[0]
	for i := 0; i < probeGathers; i++ {
		idx = p.table[idx%probeTableLen] + uint64(i)
	}
	off := int(idx % (probeTableLen - probeCopyWords))
	copy(p.dst, p.table[off:off+probeCopyWords])
	p.sink = idx + p.dst[0]
	return time.Since(start)
}

// faults gives the fresh buffer's pages back to the kernel and touches each
// one again: what the Go allocator does when the heap grows.
func (p *probe) faults() time.Duration {
	start := time.Now()
	if err := syscall.Madvise(p.fresh, syscall.MADV_DONTNEED); err != nil {
		panic(fmt.Sprintf("speed probe: madvise on its own mapping: %v", err))
	}
	for i := 0; i < len(p.fresh); i += p.stride {
		p.fresh[i] = 1
	}
	return time.Since(start)
}

// seconds reports the sum of the fastest of a few repetitions of each half:
// an interrupt lengthens one repetition, a slow episode lengthens all.
func (p *probe) seconds() float64 {
	c, f := p.compute(), p.faults()
	for i := 1; i < probeReps; i++ {
		c, f = min(c, p.compute()), min(f, p.faults())
	}
	return (c + f).Seconds()
}
