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

// oracle is the sequential reference of Claim 3: every request of needs is
// answered with the first value of its key in origin order — the lists in
// the order given, each in list order — and a request for a key with no
// value is left unanswered.
func oracle[V any](needs [][]int64, values ...[]KV[V]) []map[int64]V {
	first := map[int64]V{}
	for _, vs := range values {
		for _, kv := range vs {
			if _, ok := first[kv.K]; !ok {
				first[kv.K] = kv.V
			}
		}
	}
	out := make([]map[int64]V, len(needs))
	for i, ns := range needs {
		out[i] = map[int64]V{}
		for _, x := range ns {
			if v, ok := first[x]; ok {
				out[i][x] = v
			}
		}
	}
	return out
}

// atRoots moves every value of values to its key's root under p, machine by
// machine in list order: PlanBroadcast's small input, in origin order.
func atRoots[V any](p *Plan, k int, values [][]KV[V]) [][]KV[V] {
	small := make([][]KV[V], k)
	for _, vs := range values {
		for _, kv := range vs {
			r := p.root(kv.K)
			small[r] = append(small[r], kv)
		}
	}
	return small
}

// sameAnswers fails t unless every machine's answers strictly ascend by key
// and equal the oracle's, machine by machine; a machine past either is
// answered nothing.
func sameAnswers[V comparable](t *testing.T, name string, got Answers[V], want []map[int64]V) {
	t.Helper()
	for i := range max(len(got.starts)-1, len(want)) {
		var w map[int64]V
		if i < len(want) {
			w = want[i]
		}
		g := got.Of(i)
		for j := 1; j < len(g); j++ {
			if g[j-1].K >= g[j].K {
				t.Fatalf("%s: machine %d's answers do not strictly ascend: %v", name, i, g)
			}
		}
		if gm := answerMap(g); !maps.Equal(gm, w) {
			t.Fatalf("%s: machine %d is answered %v, the oracle %v", name, i, gm, w)
		}
	}
}

// answerMap is one machine's answers as a map.
func answerMap[V any](kvs []KV[V]) map[int64]V {
	m := make(map[int64]V, len(kvs))
	for _, kv := range kvs {
		m[kv.K] = kv.V
	}
	return m
}

// checkPlan runs in's collectives over one NewPlan of in.needs on c and
// fails t at the first difference from their references:
//
//   - PlanCombine against AggregateByKey, under a sum and under a first-wins
//     combine (which sees the fold order): the same (key, value) set, every
//     key at its root, one route round plus a span-up round when the plan
//     has a span;
//   - PlanBroadcast of that result and in.large against the oracle of
//     AggregateByKey's and in.large: the same answers, in treeDepth+1 rounds
//     plus the scatter round;
//   - PlanBroadcast of two values per request, put at the key's root in
//     requester order, against the oracle of the same lists: the first in
//     origin order wins;
//   - a combine key its machine does not request, a value away from its
//     root, and (without a large machine) large values are refused —
//     ErrUnplanned, ErrUnplanned, mpc.ErrNeedsLarge — before any round.
func checkPlan(t *testing.T, c *mpc.Cluster, in planInput) {
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
		sameAnswers(t, cb.name, got, oracle(in.needs, Flatten(aggRoots), in.large))
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
	sameAnswers(t, "duplicates", got, oracle(in.needs, Flatten(dup)))

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

// TestPlanMatchesOneShot is the differential test of the plan against the
// one-shot AggregateByKey and the sequential oracle (checkPlan) on a
// 128-machine cluster, with and without the large machine: a hot key every
// machine requests (its requests span at least three machines), random keys,
// keys requested and never valued, every eleventh machine empty, and — with
// the large machine — large values, duplicated, for keys no item carries.
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
		checkPlan(t, c, in)
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
		checkPlan(t, c, in)
	})
}

// dupValues builds the FirstWins input on k machines: every machine holds
// two values of the hot key 7 and requests it, a cold key 100+j (j < 5) has
// a value on machine j+1 and a later one on machine k-1-j, and key 999 is
// requested by everyone and held by no one.
func dupValues(k int) (values [][]KV[int64], needs [][]int64) {
	values, needs = make([][]KV[int64], k), make([][]int64, k)
	for i := range values {
		values[i] = []KV[int64]{{K: 7, V: int64(10*i + 1)}, {K: 7, V: int64(10*i + 2)}}
		needs[i] = []int64{7, int64(100 + i%5), 999}
	}
	for j := 0; j < 5; j++ {
		values[k-1-j] = append(values[k-1-j], KV[int64]{K: int64(100 + j), V: int64(2000 + j)})
		values[j+1] = append(values[j+1], KV[int64]{K: int64(100 + j), V: int64(1000 + j)})
	}
	return values, needs
}

// TestPlanBroadcastDuplicateValuesFirstWins: of several values for one key,
// every requester is answered with the first in (origin machine, origin
// position) order — not with whichever value shares a machine with its
// request, which is what a hot key with 2K values and K requests used to
// read. The large machine's values enter behind the root's own.
func TestPlanBroadcastDuplicateValuesFirstWins(t *testing.T) {
	for _, noLarge := range []bool{false, true} {
		c := newCluster(t, 256, 2048, noLarge)
		values, needs := dupValues(c.K())
		var large []KV[int64]
		if !noLarge {
			large = []KV[int64]{{K: 7, V: -1}, {K: 100, V: -2}, {K: 555, V: 5}, {K: 555, V: 6}}
			needs[3] = append(needs[3], 555)
		}
		p, err := NewPlan(c, needs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PlanBroadcast(c, p, atRoots(p, c.K(), values), large, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.K() {
			want := map[int64]int64{7: 1, int64(100 + i%5): int64(1000 + i%5)}
			if !noLarge && i == 3 {
				want[555] = 5
			}
			if g := answerMap(got.Of(i)); !maps.Equal(g, want) {
				t.Fatalf("noLarge=%v machine %d got %v, want %v", noLarge, i, g, want)
			}
		}
		sameAnswers(t, "duplicates", got, oracle(needs, Flatten(values), large))
	}
}

// TestDisseminateLargeValuesNeedLarge: large values on a cluster without a
// large machine are refused with mpc.ErrNeedsLarge, as every other
// needs-large primitive refuses, before NewPlan's Sort is charged.
func TestDisseminateLargeValuesNeedLarge(t *testing.T) {
	c := newCluster(t, 256, 2048, true)
	_, err := DisseminateFromLarge(c, [][]int64{{7}}, map[int64]int64{7: 1}, 1)
	if !errors.Is(err, mpc.ErrNeedsLarge) {
		t.Fatalf("err = %v, want ErrNeedsLarge", err)
	}
	if c.Rounds() != 0 {
		t.Errorf("refused call charged %d rounds", c.Rounds())
	}
}

// TestDisseminateChargesSortScatterTreeAnswer pins DisseminateFromLarge's
// round cost, a function of public parameters only: NewPlan's Sort of the
// same requests, a scatter round when the large machine holds values,
// treeDepth(K, b) tree rounds and the answer round — nothing for finding the
// spans.
func TestDisseminateChargesSortScatterTreeAnswer(t *testing.T) {
	const k, vwords = 128, 1
	small := mpc.UniformProfile(k)
	small.CapScale[k/2] = 0.006 // room for the splitter list, not for K children
	for _, tc := range []struct {
		name     string
		cfg      mpc.Config
		values   bool
		minDepth int
	}{
		{"default", mpc.Config{}, true, 1},
		{"default, no values", mpc.Config{}, false, 1},
		{"NoLarge, no values", mpc.Config{NoLarge: true}, false, 1},
		{"one small-capacity machine", mpc.Config{Profile: small}, true, 2},
	} {
		cfg := tc.cfg
		cfg.N, cfg.M, cfg.K, cfg.Seed = 256, 2048, k, 42
		c, err := mpc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		depth := treeDepth(k, branching(c, vwords+1))
		if depth < tc.minDepth {
			t.Fatalf("%s: tree depth %d, want at least %d", tc.name, depth, tc.minDepth)
		}
		_, needs := dupValues(k)
		values := map[int64]int64{}
		if tc.values {
			for x := int64(0); x < 3*k; x++ {
				values[x] = x
			}
		}
		keys := make([][]SortKey, k) // the request items' sort keys
		for i := range keys {
			for _, x := range needs[i] {
				keys[i] = append(keys[i], requestKey(request{Key: x, M: int32(i)}))
			}
		}
		before := c.Rounds()
		if _, err := Sort(c, keys, sortKeyWords, func(key SortKey) SortKey { return key }); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := c.Rounds() - before + depth + 1
		if tc.values {
			want++
		}
		before = c.Rounds()
		got, err := DisseminateFromLarge(c, needs, values, vwords)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sameAnswers(t, tc.name, got, oracle(needs, SortedKVs(values)))
		if used := c.Rounds() - before; used != want {
			t.Errorf("%s: DisseminateFromLarge charged %d rounds, want %d (one Sort + scatter + %d tree + 1 answer)", tc.name, used, want, depth)
		}
	}
}

// TestAnswersLookup: Get and At find a machine's answered keys by bisection
// and report a key it was not answered — below, between and past its keys,
// or requested with no value — as absent with the zero value; an empty
// machine, a machine past K and the zero Answers are answered nothing.
func TestAnswersLookup(t *testing.T) {
	c := newCluster(t, 256, 2048, false)
	k := c.K()
	needs := make([][]int64, k) // machine 0 requests nothing
	needs[1], needs[2] = []int64{3, 5, 9}, []int64{5, 7}
	values := map[int64]int64{3: 30, 5: 50, 9: 90}
	got, err := DisseminateFromLarge(c, needs, values, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range needs[1] {
		if v, ok := got.Get(1, key); !ok || v != values[key] || got.At(1, key) != v {
			t.Errorf("machine 1 key %d: Get = %d, %v; At = %d; want %d", key, v, ok, got.At(1, key), values[key])
		}
	}
	absent := []struct {
		i   int
		key int64
	}{{1, 1}, {1, 4}, {1, 10}, {2, 7}, {0, 5}, {k, 5}}
	for _, a := range absent {
		if v, ok := got.Get(a.i, a.key); ok || v != 0 || got.At(a.i, a.key) != 0 {
			t.Errorf("machine %d key %d: Get = %d, %v; At = %d; want absent", a.i, a.key, v, ok, got.At(a.i, a.key))
		}
	}
	if n := len(got.Of(0)) + len(got.Of(k)); n != 0 {
		t.Errorf("an empty machine and one past K hold %d answers", n)
	}
	var none Answers[int64]
	if v, ok := none.Get(0, 5); ok || v != 0 || none.Of(0) != nil {
		t.Errorf("the zero Answers answers machine 0: %d, %v, %v", v, ok, none.Of(0))
	}
}

// TestPlanBroadcastRefusesRepeatedRequest: a key twice in one machine's
// needs is answered twice, and the answers' decode refuses the repeat with
// ErrAnswerOrder rather than hand a lookup keys that do not strictly ascend.
func TestPlanBroadcastRefusesRepeatedRequest(t *testing.T) {
	c := newCluster(t, 256, 2048, false)
	needs := make([][]int64, c.K())
	needs[1] = []int64{5, 5}
	if _, err := DisseminateFromLarge(c, needs, map[int64]int64{5: 50}, 1); !errors.Is(err, ErrAnswerOrder) {
		t.Fatalf("err = %v, want ErrAnswerOrder", err)
	}
}
