package mpc

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestEachVisitsAllOnce: Each calls fn exactly once per small machine, with
// a pool narrower than K (4 and 34 workers on 2048 machines) and one clipped
// to it (K=2) — the two ends of the K range the benchmark runs.
func TestEachVisitsAllOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 16} {
		runtime.GOMAXPROCS(procs)
		for _, k := range []int{2, 2048} {
			c := newTest(t, Config{N: 4096, M: 1 << 15, K: k, Seed: 1})
			if c.K() != k {
				t.Fatalf("K = %d, want %d", c.K(), k)
			}
			counts := make([]atomic.Int32, k)
			c.Each(func(i int) { counts[i].Add(1) })
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("GOMAXPROCS=%d K=%d: machine %d visited %d times", procs, k, i, got)
				}
			}
		}
	}
}

// TestEachAllocs: Each runs on ForSmall's worker loop directly, not through
// a closure adapting func(int) to func(int) error, so a call allocates no
// more than the same ForSmall call.
func TestEachAllocs(t *testing.T) {
	c := newTest(t, Config{N: 256, M: 2048, Seed: 1})
	sink := make([]int, c.K())
	each := testing.AllocsPerRun(100, func() { c.Each(func(i int) { sink[i]++ }) })
	forSmall := testing.AllocsPerRun(100, func() {
		_ = c.ForSmall(func(i int) error { sink[i]++; return nil })
	})
	if each > forSmall {
		t.Errorf("Each allocates %v per call, ForSmall %v", each, forSmall)
	}
}
