package prims

import (
	"maps"
	"testing"
	"testing/quick"

	"hetmpc/internal/mpc"
	"hetmpc/internal/xrand"
)

// TestSortQuickAcrossGammas property-tests Sort over random data shapes and
// machine-memory exponents: the result must always be the same multiset,
// globally sorted, within O(1) rounds.
func TestSortQuickAcrossGammas(t *testing.T) {
	prop := func(seed uint64, gammaPick uint8, skew uint8) bool {
		gammas := []float64{0.3, 0.5, 0.7}
		gamma := gammas[int(gammaPick)%len(gammas)]
		c, err := mpc.New(mpc.Config{N: 256, M: 1024, Gamma: gamma, Seed: seed})
		if err != nil {
			return false
		}
		rng := xrand.New(seed)
		data := make([][]int64, c.K())
		total := 0
		var sum int64
		for i := range data {
			n := rng.IntN(16)
			if skew%3 == 0 && i != 0 {
				n = 0 // everything on machine 0
			}
			for j := 0; j < n; j++ {
				v := rng.Int64N(1 << 40)
				data[i] = append(data[i], v)
				total++
				sum += v
			}
		}
		before := c.Rounds()
		sorted, err := Sort(c, data, 1, func(v int64) SortKey { return SortKey{A: v} })
		if err != nil {
			return false
		}
		if c.Rounds()-before > 15 {
			return false
		}
		if CountItems(sorted) != total {
			return false
		}
		var gotSum int64
		for _, part := range sorted {
			for _, v := range part {
				gotSum += v
			}
		}
		if gotSum != sum {
			return false
		}
		return IsGloballySorted(sorted, func(v int64) SortKey { return SortKey{A: v} })
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestAggregateQuick property-tests AggregateByKey: the per-key sums must
// match a sequential reference for random key distributions, including hot
// keys spanning all machines.
func TestAggregateQuick(t *testing.T) {
	prop := func(seed uint64, hot bool) bool {
		c, err := mpc.New(mpc.Config{N: 128, M: 512, Seed: seed, NoLarge: seed%2 == 0})
		if err != nil {
			return false
		}
		rng := xrand.New(seed + 5)
		items := make([][]KV[int64], c.K())
		want := map[int64]int64{}
		keyRange := int64(40)
		if hot {
			keyRange = 3
		}
		for i := range items {
			for j := 0; j < 12; j++ {
				k := rng.Int64N(keyRange)
				v := rng.Int64N(1000)
				items[i] = append(items[i], KV[int64]{K: k, V: v})
				want[k] += v
			}
		}
		roots, err := AggregateByKey(c, items, 1, func(a, b int64) int64 { return a + b })
		if err != nil {
			return false
		}
		got := map[int64]int64{}
		for i := range roots {
			for _, kv := range roots[i] {
				if _, dup := got[kv.K]; dup {
					return false
				}
				got[kv.K] = kv.V
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestDisseminateQuick property-tests DisseminateFromLarge against the
// sequential oracle: every requested key with a value is answered with
// exactly that value; keys without values stay unanswered, and no machine
// is answered a key it did not request.
func TestDisseminateQuick(t *testing.T) {
	prop := func(seed uint64) bool {
		c, err := mpc.New(mpc.Config{N: 128, M: 512, Seed: seed})
		if err != nil {
			return false
		}
		rng := xrand.New(seed + 9)
		var values []KV[int64]
		for k := int64(0); k < 30; k++ {
			if rng.IntN(2) == 0 {
				values = append(values, KV[int64]{K: k, V: rng.Int64N(1 << 30)})
			}
		}
		needs := make([][]int64, c.K())
		for i := range needs {
			for j := 0; j < 6; j++ {
				needs[i] = append(needs[i], rng.Int64N(40))
			}
		}
		needs, _ = DistinctSlots(needs)
		got, err := DisseminateFromLarge(c, needs, values, 1)
		if err != nil {
			return false
		}
		want := oracle(needs, values)
		for i := range want {
			if !maps.Equal(answerMap(got, i, needs[i]), want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
