package prims

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
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

// sameAnswers fails t unless every slot s of every machine i holds the
// oracle's answer for needs[i][s], present and absent alike; a slot past a
// machine's needs, and a machine past them, is answered nothing.
func sameAnswers[V comparable](t *testing.T, name string, got Answers[V], needs [][]int64, want []map[int64]V) {
	t.Helper()
	for i := range len(needs) + 1 {
		var ns []int64
		if i < len(needs) {
			ns = needs[i]
		}
		for s := range len(ns) + 1 {
			g, gok := got.Slot(i, s)
			var w V
			wok, key := false, "none"
			if s < len(ns) {
				w, wok = want[i][ns[s]]
				key = fmt.Sprint(ns[s])
			}
			if g != w || gok != wok {
				t.Fatalf("%s: machine %d slot %d (key %s) is answered %v, %v; the oracle %v, %v", name, i, s, key, g, gok, w, wok)
			}
		}
	}
}

// answerMap is machine i's answers as a map from its needs' keys.
func answerMap[V any](a Answers[V], i int, needs []int64) map[int64]V {
	m := make(map[int64]V, len(needs))
	for s, x := range needs {
		if v, ok := a.Slot(i, s); ok {
			m[x] = v
		}
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
		sameAnswers(t, cb.name, got, in.needs, oracle(in.needs, Flatten(aggRoots), in.large))
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
	sameAnswers(t, "duplicates", got, in.needs, oracle(in.needs, Flatten(dup)))

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
			distinct, _ := DistinctSlots([][]int64{ns})
			in.needs[i] = distinct[0]
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
		in.needs, _ = DistinctSlots(in.needs)
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
			needs[3] = slices.Insert(needs[3], 2, 555) // {7, 103, 555, 999}
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
			if g := answerMap(got, i, needs[i]); !maps.Equal(g, want) {
				t.Fatalf("noLarge=%v machine %d got %v, want %v", noLarge, i, g, want)
			}
		}
		sameAnswers(t, "duplicates", got, needs, oracle(needs, Flatten(values), large))
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
		sameAnswers(t, tc.name, got, needs, oracle(needs, SortedKVs(values)))
		if used := c.Rounds() - before; used != want {
			t.Errorf("%s: DisseminateFromLarge charged %d rounds, want %d (one Sort + scatter + %d tree + 1 answer)", tc.name, used, want, depth)
		}
	}
}

// TestAnswersLookup: Slot reads machine i's answer to needs[i][s] in slot
// s, and reports a slot whose key has no value, one past the machine's
// needs, any slot of an empty machine or of a machine past K, and any slot of
// the zero Answers as absent with the zero value.
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
	for _, a := range []struct {
		i, s int
		want int64
	}{{1, 0, 30}, {1, 1, 50}, {1, 2, 90}, {2, 0, 50}} {
		if v, ok := got.Slot(a.i, a.s); !ok || v != a.want {
			t.Errorf("machine %d slot %d: Slot = %d, %v; want %d", a.i, a.s, v, ok, a.want)
		}
	}
	absent := []struct{ i, s int }{{1, 3}, {1, -1}, {2, 1}, {2, 2}, {0, 0}, {k, 0}}
	for _, a := range absent {
		if v, ok := got.Slot(a.i, a.s); ok || v != 0 {
			t.Errorf("machine %d slot %d: Slot = %d, %v; want absent", a.i, a.s, v, ok)
		}
	}
	var none Answers[int64]
	if v, ok := none.Slot(0, 0); ok || v != 0 {
		t.Errorf("the zero Answers answers machine 0: %d, %v", v, ok)
	}
}

// TestPlanBroadcastRefusesRepeatedRequest: a needs list that does not
// strictly ascend — a key twice, or distinct keys out of order — is refused
// with ErrNeedsOrder before any round is charged, by NewPlan and so by
// DisseminateFromLarge.
func TestPlanBroadcastRefusesRepeatedRequest(t *testing.T) {
	for _, bad := range [][]int64{{5, 5}, {9, 5, 3}} {
		c := newCluster(t, 256, 2048, false)
		needs := make([][]int64, c.K())
		needs[1] = bad
		before := c.Stats()
		if _, err := DisseminateFromLarge(c, needs, map[int64]int64{5: 50}, 1); !errors.Is(err, ErrNeedsOrder) {
			t.Fatalf("needs %v: err = %v, want ErrNeedsOrder", bad, err)
		} else if strings.Count(err.Error(), "prims:") != 1 {
			t.Errorf("needs %v: %q repeats its prefix", bad, err)
		}
		if _, err := NewPlan(c, needs); !errors.Is(err, ErrNeedsOrder) {
			t.Fatalf("needs %v: NewPlan err = %v, want ErrNeedsOrder", bad, err)
		}
		if after := c.Stats(); after.Rounds != before.Rounds || after.TotalWords != before.TotalWords {
			t.Errorf("needs %v: refused calls charged %d rounds, %d words", bad, after.Rounds-before.Rounds, after.TotalWords-before.TotalWords)
		}
	}
}

// TestDistinctSlots: whatever the order of a machine's keys, its needs
// strictly ascend and every position's slot holds its key.
func TestDistinctSlots(t *testing.T) {
	for _, tc := range []struct {
		name string
		keys []int64
		want []int64
	}{
		{"empty", nil, nil},
		{"all equal", []int64{4, 4, 4, 4}, []int64{4}},
		{"distinct", []int64{-3, 0, 8, 1 << 40}, []int64{-3, 0, 8, 1 << 40}},
		{"reversed", []int64{9, 7, 7, 5, 3, 3, -1}, []int64{-1, 3, 5, 7, 9}},
		{"past the radix cutoff", func() []int64 {
			ks := make([]int64, 3*radixCutoff)
			for j := range ks {
				ks[j] = int64(len(ks)-j) % 50
			}
			return ks
		}(), func() []int64 {
			ks := make([]int64, 50)
			for j := range ks {
				ks[j] = int64(j)
			}
			return ks
		}()},
	} {
		keys := slices.Clone(tc.keys)
		needs, slots := DistinctSlots([][]int64{keys, nil})
		if len(needs) != 2 || len(slots) != 2 || len(needs[1]) != 0 || len(slots[1]) != 0 {
			t.Fatalf("%s: an empty machine gets needs %v, slots %v", tc.name, needs[1:], slots[1:])
		}
		out, sl := needs[0], slots[0]
		if !slices.Equal(out, tc.want) {
			t.Errorf("%s: needs %v, want %v", tc.name, out, tc.want)
		}
		for j := 1; j < len(out); j++ {
			if out[j-1] >= out[j] {
				t.Errorf("%s: needs %v do not strictly ascend", tc.name, out)
			}
		}
		if len(sl) != len(tc.keys) {
			t.Fatalf("%s: %d slots for %d keys", tc.name, len(sl), len(tc.keys))
		}
		for j, x := range tc.keys {
			if out[sl[j]] != x {
				t.Errorf("%s: position %d (key %d) has slot %d, which holds %d", tc.name, j, x, sl[j], out[sl[j]])
			}
		}
	}
}
