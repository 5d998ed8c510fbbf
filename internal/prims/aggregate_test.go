package prims

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"hetmpc/internal/mpc"
)

// minSum is a value that aggregates to the minimum and the sum at once.
type minSum struct{ Min, Sum int64 }

func combineMinSum(a, b minSum) minSum { return minSum{min(a.Min, b.Min), a.Sum + b.Sum} }

// hotKey runs one AggregateByKey over a single key with a partial on every
// machine, declared at vwords words a value, and returns the machine that
// ends up holding the key.
func hotKey(c *mpc.Cluster, vwords int) (owner int, got minSum, err error) {
	items := make([][]KV[minSum], c.K())
	for i := range items {
		items[i] = []KV[minSum]{{K: 9, V: minSum{int64(1000 - i), int64(i)}}}
	}
	roots, err := AggregateByKey(c, items, vwords, combineMinSum)
	if err != nil {
		return 0, minSum{}, err
	}
	owner = -1
	for i := range roots {
		for _, kv := range roots[i] {
			if owner >= 0 || kv.K != 9 {
				return 0, minSum{}, fmt.Errorf("roots hold (%d, %v) on machine %d beside the hot key on machine %d", kv.K, kv.V, i, owner)
			}
			owner, got = i, kv.V
		}
	}
	return owner, got, nil
}

// TestAggregateHotKeyFitsOrFailsTyped pins the capacity argument that stands
// where the tree-combine stood: a key's ≤ K partials all land on one
// machine, so a hot key aggregates while K·(vwords+1) fits its owner and is
// refused — by Sort's route round, as mpc.ErrCapacity naming the owner —
// one word of value past that; never clipped. Both on a uniform cluster and
// with the owner's capacity halved by the profile, where the refused size is
// one the uniform cluster carries.
func TestAggregateHotKeyFitsOrFailsTyped(t *testing.T) {
	cfg := mpc.Config{N: 256, M: 2048, Seed: 42}
	k := cfg.DeriveK()
	uniform, err := mpc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	owner, _, err := hotKey(uniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	halved := mpc.UniformProfile(k)
	halved.CapScale[owner] = 0.5

	for _, tc := range []struct {
		name    string
		profile *mpc.Profile
	}{{"uniform", nil}, {"owner at half capacity", halved}} {
		cfg.Profile = tc.profile
		c, err := mpc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fits := c.SmallCapOf(owner)/k - 1 // the largest vwords with K·(vwords+1) ≤ cap
		at, got, err := hotKey(c, fits)
		want := minSum{int64(1000 - (k - 1)), int64(k * (k - 1) / 2)}
		if err != nil || at != owner || got != want {
			t.Fatalf("%s, vwords=%d: key on machine %d = %+v, err %v; want machine %d = %+v", tc.name, fits, at, got, err, owner, want)
		}
		_, _, err = hotKey(c, fits+1)
		if !errors.Is(err, mpc.ErrCapacity) {
			t.Fatalf("%s, vwords=%d: err = %v, want ErrCapacity", tc.name, fits+1, err)
		}
		if name := fmt.Sprintf("machine %d received %d > cap %d words", owner, k*(fits+2), c.SmallCapOf(owner)); !strings.Contains(err.Error(), name) {
			t.Fatalf("%s: error %q does not say %q", tc.name, err, name)
		}
		if tc.profile != nil {
			if _, _, err := hotKey(uniform, fits+1); err != nil {
				t.Fatalf("the uniform cluster refuses vwords=%d: %v", fits+1, err)
			}
		}
	}
}

// TestAggregateChargesOneSort pins the round cost: AggregateByKey has no
// round of its own — it charges exactly what Sort charges for the same
// partials, and GatherKVs of its roots one round more.
func TestAggregateChargesOneSort(t *testing.T) {
	add := func(a, b int64) int64 { return a + b }
	for _, mode := range []struct{ noLarge, gather bool }{{false, false}, {false, true}, {true, false}} {
		c := newCluster(t, 256, 2048, mode.noLarge)
		kvs := make([][]KV[int64], c.K())
		partials := make([][]KV[int64], c.K())
		for i := range kvs {
			for j := 0; j < 30; j++ {
				kvs[i] = append(kvs[i], KV[int64]{K: int64((i*7 + j*13) % 50), V: int64(j)})
			}
			partials[i] = localCombine(nil, kvs[i], add)
		}
		before := c.Rounds()
		if _, err := Sort(c, partials, 2, func(kv KV[int64]) SortKey { return SortKey{A: kv.K} }); err != nil {
			t.Fatal(err)
		}
		sortRounds := c.Rounds() - before
		before = c.Rounds()
		roots, err := AggregateByKey(c, kvs, 1, add)
		if err != nil {
			t.Fatal(err)
		}
		if mode.gather {
			if _, err := GatherKVs(c, roots, 1); err != nil {
				t.Fatal(err)
			}
		}
		want := sortRounds
		if mode.gather {
			want++
		}
		if got := c.Rounds() - before; got != want {
			t.Errorf("noLarge=%v gather=%v: AggregateByKey charged %d rounds, want %d", mode.noLarge, mode.gather, got, want)
		}
	}
}

// TestGatherKVsSortsAndCharges: sketch-like input — every machine holds its
// vertices' keys vertex by vertex, numbered phase·n + vertex — reaches the
// large machine in strictly ascending key order, in one round that charges
// each pair 1 + vwords: 6144 words here, what the map-building gather
// it replaces charged on the same input.
func TestGatherKVsSortsAndCharges(t *testing.T) {
	c := newCluster(t, 256, 2048, false)
	n := int64(8 * c.K())
	kvs := make([][]KV[int64], c.K())
	var want []KV[int64]
	for i := range kvs {
		for v := int64(8 * i); v < int64(8*i+8); v++ {
			for ph := int64(0); ph < 3; ph++ {
				kvs[i] = append(kvs[i], KV[int64]{K: ph*n + v, V: v + ph})
				want = append(want, KV[int64]{K: ph*n + v, V: v + ph})
			}
		}
	}
	slices.SortFunc(want, func(a, b KV[int64]) int { return cmp.Compare(a.K, b.K) })
	before := c.Stats()
	got, err := GatherKVs(c, kvs, 1)
	if err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if !slices.Equal(got, want) {
		t.Fatalf("GatherKVs returns %d pairs not in key order", len(got))
	}
	if rounds, words := after.Rounds-before.Rounds, after.TotalWords-before.TotalWords; rounds != 1 || words != 6144 {
		t.Errorf("GatherKVs charged %d rounds and %d words, want 1 and 6144", rounds, words)
	}
}

// TestGatherKVsRefusesRepeatedKey: a key held on two machines, or twice on
// one, is refused with ErrRepeatedKey naming it, never resolved by which copy
// arrives last.
func TestGatherKVsRefusesRepeatedKey(t *testing.T) {
	for _, kvs := range [][][]KV[int64]{
		{{{K: 3, V: 1}, {K: 5, V: 1}}, {{K: 5, V: 2}}},
		{{{K: 5, V: 1}, {K: 5, V: 2}}},
	} {
		c := newCluster(t, 256, 2048, false)
		_, err := GatherKVs(c, kvs, 1)
		if !errors.Is(err, ErrRepeatedKey) || !strings.Contains(err.Error(), "key 5") {
			t.Errorf("%v: err = %v, want ErrRepeatedKey naming key 5", kvs, err)
		}
	}
}
