package prims

import (
	"errors"
	"maps"
	"slices"
	"testing"

	"hetmpc/internal/mpc"
	"hetmpc/internal/xrand"
)

// planInput is one differential case: machine i requests needs[i] and
// combines items[i], whose keys it requests; large holds the large machine's
// values, for keys no item carries.
type planInput struct {
	needs [][]int64
	items [][]KV[int64]
	large []KV[int64]
}

// checkPlanAgainstOneShot runs in both ways on c and fails t at the first
// difference. Over one NewPlan of in.needs:
//
//   - PlanCombine against AggregateByKey, under a sum and under a first-wins
//     combine (which sees the fold order): the same (key, value) set, every
//     key at its root, one route round plus a span-up round when the plan
//     has a span;
//   - PlanBroadcast of that result and in.large against SegmentedBroadcast of
//     AggregateByKey's and in.large: the same answers, in treeDepth+1 rounds
//     plus the scatter round;
//   - PlanBroadcast of two values per request, put at the key's root in
//     requester order, against SegmentedBroadcast of the same lists: the
//     first in origin order wins in both;
//   - a combine key its machine does not request, a value away from its
//     root, and (without a large machine) large values are refused —
//     ErrUnplanned, ErrUnplanned, mpc.ErrNeedsLarge — before any round.
func checkPlanAgainstOneShot(t *testing.T, c *mpc.Cluster, in planInput) {
	t.Helper()
	k := c.K()
	p, err := NewPlan(c, in.needs)
	if err != nil {
		t.Fatal(err)
	}
	depth := treeDepth(k, branching(c, 2))
	for _, cb := range []struct {
		name    string
		combine func(a, b int64) int64
	}{
		{"sum", func(a, b int64) int64 { return a + b }},
		{"first", func(a, _ int64) int64 { return a }},
	} {
		before := c.Rounds()
		roots, err := PlanCombine(c, p, in.items, 1, cb.combine)
		if err != nil {
			t.Fatalf("%s: PlanCombine: %v", cb.name, err)
		}
		want := 1
		if p.spanned {
			want++
		}
		if got := c.Rounds() - before; got != want {
			t.Errorf("%s: PlanCombine charged %d rounds, want %d", cb.name, got, want)
		}
		for i := range roots {
			for _, kv := range roots[i] {
				if r := p.root(kv.K); r != i {
					t.Fatalf("%s: key %d combined on machine %d, its root is %d", cb.name, kv.K, i, r)
				}
			}
		}
		aggRoots, _, err := AggregateByKey(c, in.items, 1, cb.combine, false)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := Flatten(roots), Flatten(aggRoots); !slices.Equal(got, want) {
			t.Fatalf("%s: PlanCombine gives %v, AggregateByKey %v", cb.name, got, want)
		}

		before = c.Rounds()
		got, err := PlanBroadcast(c, p, roots, in.large, 1)
		if err != nil {
			t.Fatalf("%s: PlanBroadcast: %v", cb.name, err)
		}
		want = depth + 1
		if len(in.large) > 0 {
			want++
		}
		if used := c.Rounds() - before; used != want {
			t.Errorf("%s: PlanBroadcast charged %d rounds, want %d (tree %d + answer + scatter)", cb.name, used, want, depth)
		}
		oneShot, err := SegmentedBroadcast(c, in.needs, aggRoots, in.large, 1)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, cb.name, got, oneShot)
	}

	dup := make([][]KV[int64], k)
	for i, ns := range in.needs {
		for _, x := range ns {
			r := p.root(x)
			dup[r] = append(dup[r], KV[int64]{K: x, V: x*1000 + int64(2*i)}, KV[int64]{K: x, V: x*1000 + int64(2*i+1)})
		}
	}
	got, err := PlanBroadcast(c, p, dup, nil, 1)
	if err != nil {
		t.Fatalf("duplicates: PlanBroadcast: %v", err)
	}
	oneShot, err := SegmentedBroadcast(c, in.needs, dup, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, "duplicates", got, oneShot)

	before := c.Rounds()
	stray := make([][]KV[int64], k)
	stray[k-1] = []KV[int64]{{K: -1, V: 1}}
	if _, err := PlanCombine(c, p, stray, 1, func(a, b int64) int64 { return a + b }); !errors.Is(err, ErrUnplanned) {
		t.Errorf("a combine key machine %d does not request: err = %v, want ErrUnplanned", k-1, err)
	}
	if k > 1 {
		off := make([][]KV[int64], k)
		off[(p.root(-1)+1)%k] = []KV[int64]{{K: -1, V: 1}}
		if _, err := PlanBroadcast(c, p, off, nil, 1); !errors.Is(err, ErrUnplanned) {
			t.Errorf("a value away from its root: err = %v, want ErrUnplanned", err)
		}
	}
	if !c.HasLarge() {
		if _, err := PlanBroadcast(c, p, nil, []KV[int64]{{K: 1, V: 1}}, 1); !errors.Is(err, mpc.ErrNeedsLarge) {
			t.Errorf("large values without a large machine: err = %v, want ErrNeedsLarge", err)
		}
	}
	if used := c.Rounds() - before; used != 0 {
		t.Errorf("refused calls charged %d rounds", used)
	}
}

// sameAnswers fails t unless the plan's answers equal the one-shot ones,
// machine by machine.
func sameAnswers(t *testing.T, name string, plan, oneShot []map[int64]int64) {
	t.Helper()
	for i := range oneShot {
		if !maps.Equal(plan[i], oneShot[i]) {
			t.Fatalf("%s: machine %d is answered %v over the plan, %v by SegmentedBroadcast", name, i, plan[i], oneShot[i])
		}
	}
}

// TestPlanMatchesOneShot is the differential test of the plan against the
// one-shot collectives on a 128-machine cluster, with and without the large
// machine: a hot key every machine requests (its requests span at least
// three machines), random keys, keys requested and never valued, every
// eleventh machine empty, and — with the large machine — large values,
// duplicated, for keys no item carries.
func TestPlanMatchesOneShot(t *testing.T) {
	for _, noLarge := range []bool{false, true} {
		c := newCluster(t, 256, 2048, noLarge)
		k := c.K()
		rng := xrand.New(9)
		in := planInput{needs: make([][]int64, k), items: make([][]KV[int64], k)}
		for i := 0; i < k; i++ {
			if i%11 == 5 {
				continue
			}
			ns := []int64{7}
			for j := 0; j < 10; j++ {
				ns = append(ns, rng.Int64N(300))
			}
			if !noLarge {
				ns = append(ns, 1000+rng.Int64N(60)) // 1050…1059 have no value
			}
			in.needs[i] = DistinctInts(ns)
			for _, x := range in.needs[i] {
				if x < 1000 && rng.IntN(3) > 0 {
					for n := 1 + rng.IntN(2); n > 0; n-- {
						in.items[i] = append(in.items[i], KV[int64]{K: x, V: rng.Int64N(100)})
					}
				}
			}
		}
		if !noLarge {
			for x := int64(1049); x >= 1000; x-- {
				in.large = append(in.large, KV[int64]{K: x, V: -x})
				if x%7 == 0 {
					in.large = append(in.large, KV[int64]{K: x, V: x}) // a later duplicate loses
				}
			}
		}
		p, err := NewPlan(c, in.needs)
		if err != nil {
			t.Fatal(err)
		}
		hot := false
		for _, s := range p.spans {
			hot = hot || (s.Key == 7 && s.B-s.A >= 2)
		}
		if !hot {
			t.Fatalf("noLarge=%v: the hot key's requests span fewer than three machines: %v", noLarge, p.spans)
		}
		checkPlanAgainstOneShot(t, c, in)
	}
}

// FuzzPlan runs the differential check on fuzzed inputs over 1…16 machines.
// Byte pairs (a, b) place one request each: machine a mod K requests key
// b mod 64, and by a's top two bits the request is bare (0), carries an item
// (1, 2; value b), or is for key 100 + b mod 16, which the large machine
// holds a value of (3; a request without a large machine).
func FuzzPlan(f *testing.F) {
	f.Add(uint8(3), false, []byte{0x40, 7, 0x41, 7, 0x42, 7, 0x43, 7, 0x80, 9, 0xc1, 3, 0x02, 11})
	f.Add(uint8(15), false, []byte{0x40, 1, 0x45, 1, 0x4a, 1, 0x4f, 1, 0x53, 1, 0xc0, 0, 0xc0, 16})
	f.Add(uint8(0), true, []byte{0x40, 5, 0x80, 5, 0x00, 6})
	f.Add(uint8(7), true, []byte{})
	f.Fuzz(func(t *testing.T, kb uint8, noLarge bool, data []byte) {
		k := int(kb)%16 + 1
		c, err := mpc.New(mpc.Config{N: 64, M: 512, K: k, Seed: 3, NoLarge: noLarge})
		if err != nil {
			t.Fatal(err)
		}
		in := planInput{needs: make([][]int64, k), items: make([][]KV[int64], k)}
		for j := 0; j+1 < len(data); j += 2 {
			m, x := int(data[j])%k, int64(data[j+1]%64)
			switch data[j] >> 6 {
			case 1, 2:
				in.items[m] = append(in.items[m], KV[int64]{K: x, V: int64(data[j+1])})
			case 3:
				x = 100 + x%16
				if !noLarge {
					in.large = append(in.large, KV[int64]{K: x, V: int64(j)})
				}
			}
			in.needs[m] = append(in.needs[m], x)
		}
		for i := range in.needs {
			in.needs[i] = DistinctInts(in.needs[i])
		}
		checkPlanAgainstOneShot(t, c, in)
	})
}
