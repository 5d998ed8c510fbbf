package prims

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"

	"hetmpc/internal/fault"
	"hetmpc/internal/metrics"
	"hetmpc/internal/mpc"
	"hetmpc/internal/xrand"
)

// TestBucketBeyondKRefused: every entry point that takes one bucket per
// machine accepts inputs shorter than K and empty tails past K, and refuses
// a non-empty bucket at index ≥ K with mpc.ErrUnknownSender naming the
// index — never the silent drop it used to be.
func TestBucketBeyondKRefused(t *testing.T) {
	key := func(v int64) SortKey { return SortKey{A: v} }
	add := func(a, b int64) int64 { return a + b }
	entries := []struct {
		name string
		call func(c *mpc.Cluster, ints [][]int64, kvs [][]KV[int64]) error
	}{
		{"Sort", func(c *mpc.Cluster, ints [][]int64, _ [][]KV[int64]) error {
			_, err := Sort(c, ints, 1, key)
			return err
		}},
		{"AggregateByKey", func(c *mpc.Cluster, _ [][]int64, kvs [][]KV[int64]) error {
			_, _, err := AggregateByKey(c, kvs, 1, add, false)
			return err
		}},
		{"GatherToLarge", func(c *mpc.Cluster, ints [][]int64, _ [][]KV[int64]) error {
			_, err := GatherToLarge(c, ints, 1)
			return err
		}},
		{"NewPlan needs", func(c *mpc.Cluster, ints [][]int64, _ [][]KV[int64]) error {
			_, err := NewPlan(c, ints)
			return err
		}},
		{"PlanBroadcast small", func(c *mpc.Cluster, _ [][]int64, kvs [][]KV[int64]) error {
			// A plan of no requests roots every key at machine 0, so the
			// machines' values move there; a stray bucket stays put.
			p, err := NewPlan(c, nil)
			if err != nil {
				return err
			}
			small := make([][]KV[int64], len(kvs))
			for i, kv := range kvs {
				if i < c.K() {
					small[0] = append(small[0], kv...)
				} else {
					small[i] = kv
				}
			}
			_, err = PlanBroadcast(c, p, small, nil, 1)
			return err
		}},
	}
	for _, e := range entries {
		c := newCluster(t, 256, 1024, false)
		k := c.K()
		for _, shape := range []struct {
			name   string
			length int
			stray  int // index of the one bucket filled past K, -1 for none
		}{{"short", k / 2, -1}, {"empty tail", k + 3, -1}, {"stray bucket", k + 3, k + 1}} {
			ints := make([][]int64, shape.length)
			kvs := make([][]KV[int64], shape.length)
			for i := 0; i < min(k, shape.length); i++ {
				ints[i] = []int64{int64(i), int64(i + 1)}
				kvs[i] = []KV[int64]{{K: int64(i), V: 1}}
			}
			if shape.stray >= 0 {
				ints[shape.stray] = []int64{99}
				kvs[shape.stray] = []KV[int64]{{K: 99, V: 1}}
			}
			err := e.call(c, ints, kvs)
			switch {
			case shape.stray < 0 && err != nil:
				t.Errorf("%s, %s input: %v", e.name, shape.name, err)
			case shape.stray >= 0 && !errors.Is(err, mpc.ErrUnknownSender):
				t.Errorf("%s, %s: err = %v, want ErrUnknownSender", e.name, shape.name, err)
			case shape.stray >= 0 && !strings.Contains(err.Error(), fmt.Sprintf("bucket %d ", shape.stray)):
				t.Errorf("%s, %s: error %q does not name bucket %d", e.name, shape.name, err, shape.stray)
			}
		}
	}
}

// TestScatterBucketBeyondKRefused: ScatterFromLarge refuses a non-empty
// bucket at index ≥ K like its siblings above — typed, naming the bucket,
// before the round is charged (the engine's own refusal comes after).
func TestScatterBucketBeyondKRefused(t *testing.T) {
	c := newCluster(t, 256, 1024, false)
	k := c.K()
	items := make([][]int64, k+3)
	items[0] = []int64{1}
	if _, err := ScatterFromLarge(c, items, 1); err != nil {
		t.Fatalf("empty tail: %v", err)
	}
	before := c.Rounds()
	items[k+1] = []int64{99}
	_, err := ScatterFromLarge(c, items, 1)
	if !errors.Is(err, mpc.ErrUnknownSender) || !strings.Contains(err.Error(), fmt.Sprintf("ScatterFromLarge: %v: bucket %d ", mpc.ErrUnknownSender, k+1)) {
		t.Errorf("stray bucket: err = %v, want ErrUnknownSender naming bucket %d", err, k+1)
	}
	if c.Rounds() != before {
		t.Errorf("refused call charged %d rounds", c.Rounds()-before)
	}
}

// TestReduceValueBeyondKRefused: the coordinator reduces read one value per
// machine; a non-zero value at index ≥ K is refused with mpc.ErrUnknownSender
// naming the op, the index and K, before any round — never dropped. Shorter
// vals and zero tails stay legal.
func TestReduceValueBeyondKRefused(t *testing.T) {
	ops := []struct {
		name      string
		needLarge bool
		call      func(c *mpc.Cluster, vals []int64) (int64, error)
	}{{"SumAll", false, SumAll}, {"SumToLarge", true, SumToLarge}, {"MaxAll", false, MaxAll}}
	for _, noLarge := range []bool{false, true} {
		for _, op := range ops {
			if op.needLarge && noLarge {
				continue
			}
			c := newCluster(t, 256, 1024, noLarge)
			k := c.K()
			vals := make([]int64, k+5)
			vals[0] = 7
			if got, err := op.call(c, vals); err != nil || got != 7 {
				t.Errorf("%s noLarge=%v, zero tail: %d, %v", op.name, noLarge, got, err)
			}
			if got, err := op.call(c, vals[:k/2]); err != nil || got != 7 {
				t.Errorf("%s noLarge=%v, short: %d, %v", op.name, noLarge, got, err)
			}
			before := c.Rounds()
			vals[k+4] = 100
			_, err := op.call(c, vals)
			want := fmt.Sprintf("prims: %s: %v: value 100 at index %d but the cluster has K=%d", op.name, mpc.ErrUnknownSender, k+4, k)
			if !errors.Is(err, mpc.ErrUnknownSender) || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("%s noLarge=%v: err = %v, want %q", op.name, noLarge, err, want)
			}
			if c.Rounds() != before {
				t.Errorf("%s noLarge=%v: refused call charged %d rounds", op.name, noLarge, c.Rounds()-before)
			}
		}
	}
}

// TestPayloadAssertionsFailTyped: struct payloads cross as pointers into
// the sender's slab, and the receive side of each still fails typed, never
// panics, on anything else — the by-value struct (what the payload used to
// be), a pointer to another instantiation, a nil pointer, a foreign value —
// wherever in the inbox it sits.
func TestPayloadAssertionsFailTyped(t *testing.T) {
	good := mpc.Msg{Data: &chunk[int64]{Items: []int64{1, 2}}}
	for _, bad := range []any{
		chunk[int64]{Items: []int64{3}},
		&chunk[int32]{Items: []int32{3}},
		(*chunk[int64])(nil),
		"foreign",
		nil,
	} {
		for _, inbox := range [][]mpc.Msg{{{Data: bad}}, {good, {Data: bad}}, {{Data: bad}, good}} {
			got, err := appendChunks([]int64{7}, inbox)
			if err == nil || !strings.HasPrefix(err.Error(), "prims: unexpected chunk payload") || got != nil {
				t.Errorf("appendChunks with a %T payload: items %v, err %v", bad, got, err)
			}
		}
	}
	if got, err := appendChunks([]int64{7}, []mpc.Msg{good, good}); err != nil || len(got) != 5 {
		t.Fatalf("appendChunks of two good chunks: %v, %v", got, err)
	}

	coordinator := []struct {
		name    string
		good    any
		bad     []any
		collect func(inbox []mpc.Msg) error
	}{
		{"sample", &sample{Keys: []SortKey{{A: 1}}, Count: 4},
			[]any{sample{Count: 4}, (*sample)(nil), &span{}, int64(4)},
			func(inbox []mpc.Msg) error { _, _, err := collectSamples(inbox); return err }},
	}
	for _, tc := range coordinator {
		if err := tc.collect([]mpc.Msg{{From: 0, Data: tc.good}, {From: 1, Data: tc.good}}); err != nil {
			t.Fatalf("%s: good inbox refused: %v", tc.name, err)
		}
		for _, bad := range tc.bad {
			err := tc.collect([]mpc.Msg{{From: 0, Data: tc.good}, {From: 1, Data: bad}})
			if err == nil || !strings.HasPrefix(err.Error(), "prims: unexpected "+tc.name+" payload") {
				t.Errorf("%s with a %T payload: err %v", tc.name, bad, err)
			}
		}
	}
}

// sortInput deals per items to each of k machines from one random stream.
func sortInput(rng *rand.Rand, k, per int) [][]int64 {
	data := make([][]int64, k)
	for i := range data {
		data[i] = make([]int64, per)
		for j := range data[i] {
			data[i][j] = rng.Int64N(1 << 40)
		}
	}
	return data
}

// TestSortRouteAllocLinearInK pins what the in-place bucket walk and the
// per-call arrays buy: the bytes one Sort allocates grow with K, not K² — a
// K-entry bucket-header array on each of K machines made K=64 → K=256 at
// the same items per machine cost 16× in the route step; linear is 4× — and
// the number of allocations does not grow with K at all: the route round's
// messages, its chunk payloads and the result buckets are one array each
// per call, so what is left is O(1) plus ForSmall's goroutines (an out-list,
// a chunk slab and a result bucket per machine made it 250 → 826). Few
// items per machine, so the per-machine fixed costs are what is measured.
func TestSortRouteAllocLinearInK(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volumes are nondeterministic under the race detector")
	}
	key := func(v int64) SortKey { return SortKey{A: v} }
	alloc := func(k int) (bytes, count uint64) {
		c, err := mpc.New(mpc.Config{N: 4096, M: 1 << 16, K: k, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		data := sortInput(xrand.New(5), k, 4)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = Sort(c, data, 1, key)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	alloc(256) // warm the sort kernels' pools
	lo, loCount := alloc(64)
	hi, hiCount := alloc(256)
	t.Logf("Sort allocates %d B in %d allocations at K=64, %d B in %d at K=256", lo, loCount, hi, hiCount)
	if ratio := float64(hi) / float64(lo); ratio > 6 {
		t.Errorf("Sort allocates %d B at K=64, %d B at K=256 (ratio %.1f, linear is 4): the route step scales with K²", lo, hi, ratio)
	}
	// A 2× band: per machine is 4×; a cold kernel pool on some worker costs a
	// few allocations either way.
	if hiCount > 2*loCount {
		t.Errorf("Sort allocates %d times at K=64, %d times at K=256: allocation follows the machines, not the call", loCount, hiCount)
	}
}

// TestCollectiveAllocsPerMachine pins the payload-slab rule: a collective
// allocates per machine, not per message or item, so at a fixed K its
// allocation count barely moves when every machine holds — and requests —
// eight times as much. ScatterFromLarge, DisseminateFromLarge, PlanCombine
// and PlanBroadcast allocate per call, as Sort does
// (TestSortRouteAllocLinearInK), so theirs also sits under an absolute
// ceiling that one more allocation per machine would break — the answers
// included, which are one slab for every machine.
func TestCollectiveAllocsPerMachine(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under the race detector")
	}
	key := func(v int64) SortKey { return SortKey{A: v} }
	c := newCluster(t, 1024, 8192, false)
	k := c.K()
	check := func(name string, ceiling float64, run func(per int)) {
		t.Helper()
		allocs := func(per int) float64 {
			run(per) // warm the sort kernels' pools at this size
			return testing.AllocsPerRun(5, func() { run(per) })
		}
		lo, hi := allocs(16), allocs(128)
		t.Logf("%s over K=%d: %.0f allocations at 16 items per machine, %.0f at 128", name, k, lo, hi)
		if hi > 1.25*lo || lo > 1.25*hi {
			t.Errorf("%s allocates %.0f times at 16 items per machine, %.0f at 128: allocation follows the messages", name, lo, hi)
		}
		if ceiling > 0 && max(lo, hi) > ceiling {
			t.Errorf("%s allocates %.0f times over K=%d, want at most %.0f: allocation follows the machines, not the call", name, max(lo, hi), k, ceiling)
		}
	}
	inputs := map[int][][]int64{16: sortInput(xrand.New(5), k, 16), 128: sortInput(xrand.New(5), k, 128)}
	check("Sort", 0, func(per int) {
		// Sort reorders its input buckets in place; the multiset is the same
		// every run.
		if _, err := Sort(c, inputs[per], 1, key); err != nil {
			t.Fatal(err)
		}
	})
	check("GatherToLarge", 0, func(per int) {
		if _, err := GatherToLarge(c, inputs[per], 1); err != nil {
			t.Fatal(err)
		}
	})
	check("ScatterFromLarge", 16, func(per int) {
		if _, err := ScatterFromLarge(c, inputs[per], 1); err != nil {
			t.Fatal(err)
		}
	})
	// The large machine holds the values of keys 0 … K·per−1, and machine i
	// needs those of its successor, i+1's block of per keys.
	values, needs := map[int]map[int64]int64{}, map[int][][]int64{}
	for _, per := range []int{16, 128} {
		values[per], needs[per] = map[int64]int64{}, make([][]int64, k)
		for i := 0; i < k; i++ {
			for j := 0; j < per; j++ {
				values[per][int64(i*per+j)] = int64(j)
				needs[per][i] = append(needs[per][i], int64((i+1)%k*per+j))
			}
		}
		got, err := DisseminateFromLarge(c, needs[per], values[per], 1)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, fmt.Sprintf("DisseminateFromLarge, %d per machine", per), got, needs[per], oracle(needs[per], SortedKVs(values[per])))
	}
	check("DisseminateFromLarge", 168, func(per int) {
		got, err := DisseminateFromLarge(c, needs[per], values[per], 1)
		if _, ok := got.Slot(0, per-1); err != nil || !ok {
			t.Fatalf("DisseminateFromLarge: slot %d unanswered, err %v", per-1, err)
		}
	})
	// Over a plan of the same requests: every machine combines a partial of
	// each key it requests, and the combined values are broadcast back.
	plans, items, roots := map[int]*Plan{}, map[int][][]KV[int64]{}, map[int][][]KV[int64]{}
	for _, per := range []int{16, 128} {
		p, err := NewPlan(c, needs[per])
		if err != nil {
			t.Fatal(err)
		}
		plans[per], items[per] = p, make([][]KV[int64], k)
		for i, ns := range needs[per] {
			for _, x := range ns {
				items[per][i] = append(items[per][i], KV[int64]{K: x, V: 1})
			}
		}
		if roots[per], err = PlanCombine(c, p, items[per], 1, addInt64); err != nil {
			t.Fatal(err)
		}
	}
	check("PlanCombine", float64(k), func(per int) {
		if _, err := PlanCombine(c, plans[per], items[per], 1, addInt64); err != nil {
			t.Fatal(err)
		}
	})
	check("PlanBroadcast", 56, func(per int) {
		got, err := PlanBroadcast(c, plans[per], roots[per], nil, 1)
		if _, ok := got.Slot(0, per-1); err != nil || !ok {
			t.Fatalf("PlanBroadcast: slot %d unanswered, err %v", per-1, err)
		}
	})
}

// TestRegisterStateAllocs pins what registering a primitive's buckets with
// the fault engine costs: one closure over the buckets, whatever K. The
// engine reads bucket lengths through it at each checkpoint barrier, so a
// registration copies nothing and boxes nothing per machine.
func TestRegisterStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under the race detector")
	}
	for _, k := range []int{64, 512} {
		c, err := mpc.New(mpc.Config{N: 4096, M: 1 << 16, K: k, Seed: 42, Faults: &fault.Plan{Interval: 4}, Metrics: metrics.New()})
		if err != nil {
			t.Fatal(err)
		}
		data := sortInput(xrand.New(5), k, 4)
		register := func() { registerState(c, data, 1) }
		register()
		if got := testing.AllocsPerRun(20, register); got > 1 {
			t.Errorf("registering K=%d buckets allocates %v times, want at most 1", k, got)
		}
	}
}
