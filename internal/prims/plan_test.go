package prims

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"hetmpc/internal/mpc"
	"hetmpc/internal/trace"
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

// layoutWidest is the widest span of p's layout, read off its buckets: a
// key's span runs from its root to the last bucket holding one of its
// requests, and it has one when that is not the root.
func layoutWidest(p *Plan) int {
	last := map[int64]int{}
	for b, reqs := range p.reqs {
		for _, r := range reqs {
			last[r.Key] = b
		}
	}
	widest := 0
	for x, b := range last {
		if r := p.root(x); b > r {
			widest = max(widest, b-r+1)
		}
	}
	return widest
}

// checkAligned fails t unless every key of needs that the leaders can bound
// by b sits whole in its root's bucket. The bound is the alignment rule's:
// the key's requests on machines that sample their whole run, plus one for
// every other machine, since a machine requests a key at most once — and
// one for every machine when r > 1 leaders count no key exactly.
func checkAligned(t *testing.T, c *mpc.Cluster, p *Plan, needs [][]int64, b int) {
	t.Helper()
	ld, loose, count := sortLeaders(c, split{align: b}), 0, map[int64]int{}
	for i, ns := range needs {
		if whole, _ := ld.wholeRun(c, i, len(ns)); !whole || ld.r() > 1 {
			loose++
			continue
		}
		for _, x := range ns {
			count[x]++
		}
	}
	for i, ns := range needs {
		for s, x := range ns {
			if bucket, root := int(p.own[i][s].M), p.root(x); count[x]+loose <= b && bucket != root {
				t.Fatalf("key %d (at most %d requests, b = %d): machine %d's request went to bucket %d, its root is %d",
					x, count[x]+loose, b, i, bucket, root)
			}
		}
	}
}

// checkPlan runs in's collectives over one NewPlan of in.needs for values of
// planWords words on c and fails t at the first difference from their
// references:
//
//   - the plan is aligned: every key bound by b = branching(planWords+1)
//     sits in its root's bucket (checkAligned), and its widest span is its
//     layout's (layoutWidest);
//   - PlanCombine against AggregateByKey, under a sum and under a first-wins
//     combine (which sees the fold order): the same (key, value) set, every
//     key at its root, one route round plus a span-up round when the plan
//     has a span;
//   - PlanBroadcast of that result and in.large against the oracle of
//     AggregateByKey's and in.large: the same answers, in
//     treeDepth(widest span, b)+1 rounds plus the scatter round;
//   - PlanBroadcast of two values per request, put at the key's root in
//     requester order, against the oracle of the same lists: the first in
//     origin order wins;
//   - a combine key its machine does not request, a value away from its
//     root, collectives wider than planWords, and (without a large machine)
//     large values are refused — ErrUnplanned, ErrUnplanned, ErrUnplanned,
//     mpc.ErrNeedsLarge — before any round.
func checkPlan(t *testing.T, c *mpc.Cluster, in planInput, planWords int) *Plan {
	t.Helper()
	k := c.K()
	p, err := NewPlan(c, in.needs, planWords)
	if err != nil {
		t.Fatal(err)
	}
	checkAligned(t, c, p, in.needs, branching(c, planWords+1))
	widest := layoutWidest(p)
	if p.widest != widest {
		t.Fatalf("the plan's widest span is %d machines, its layout's %d", p.widest, widest)
	}
	depth := treeDepth(widest, branching(c, 2))
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
		if widest > 0 {
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
		aggRoots, err := AggregateByKey(c, in.items, 1, cb.combine)
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
	if _, err := PlanCombine(c, p, in.items, planWords+1, func(a, b int64) int64 { return a + b }); !errors.Is(err, ErrUnplanned) {
		t.Errorf("a combine wider than the plan: err = %v, want ErrUnplanned", err)
	}
	if _, err := PlanBroadcast[int64](c, p, nil, nil, planWords+1); !errors.Is(err, ErrUnplanned) {
		t.Errorf("a broadcast wider than the plan: err = %v, want ErrUnplanned", err)
	}
	if !c.HasLarge() {
		if _, err := PlanBroadcast(c, p, nil, []KV[int64]{{K: 1, V: 1}}, 1); !errors.Is(err, mpc.ErrNeedsLarge) {
			t.Errorf("large values without a large machine: err = %v, want ErrNeedsLarge", err)
		}
	}
	if used := c.Rounds() - before; used != 0 {
		t.Errorf("refused calls charged %d rounds", used)
	}
	return p
}

// TestPlanMatchesOneShot is the differential test of the plan against the
// one-shot AggregateByKey and the sequential oracle (checkPlan) on a
// 128-machine cluster, with and without the large machine: a hot key every
// machine requests, random keys, keys requested and never valued, every
// eleventh machine empty, and — with the large machine — large values,
// duplicated, for keys no item carries. Under a plan of 1-word values the
// hot key is aligned, its requests all in its root's bucket; under a plan of
// values so wide that one tree level fans out to 32 machines or fewer, its
// requests exceed the bound and span at least three machines, and the cold
// keys stay aligned beside it.
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
		for _, planWords := range []int{1, c.MinSmallCap() / (2 * 32)} {
			b := branching(c, planWords+1)
			p := checkPlan(t, c, in, planWords)
			hot := 0 // machines of the hot key's span
			for _, s := range p.spans {
				if s.Key == 7 && s.B > s.A {
					hot = s.B - s.A + 1
				}
			}
			if aligned := b >= k; aligned && hot > 0 {
				t.Fatalf("noLarge=%v b=%d: the hot key spans %d machines, want it aligned", noLarge, b, hot)
			} else if !aligned && hot < 3 {
				t.Fatalf("noLarge=%v b=%d: the hot key's requests span fewer than three machines: %v", noLarge, b, p.spans)
			}
		}
	}
}

// TestPlanAlignsKeys: on a plan whose every key the coordinator can bound by
// one tree level's fan-out — a hot key every machine requests included —
// every request sits in its root's bucket, no machine is in a span,
// PlanCombine charges its one route round and PlanBroadcast its scatter and
// answer rounds, no tree; and a collective wider than the plan was built
// for is ErrUnplanned before any round.
func TestPlanAlignsKeys(t *testing.T) {
	for _, noLarge := range []bool{false, true} {
		c := newCluster(t, 256, 2048, noLarge)
		k := c.K()
		if b := branching(c, 2); b < k {
			t.Fatalf("noLarge=%v: branching %d below K=%d: the plan is not aligned by its bound", noLarge, b, k)
		}
		needs, items := make([][]int64, k), make([][]KV[int64], k)
		for i := range needs {
			needs[i] = []int64{7, int64(100 + i%13), int64(200 + i)}
			items[i] = []KV[int64]{{K: 7, V: int64(i)}, {K: int64(100 + i%13), V: 1}}
		}
		p, err := NewPlan(c, needs, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, ns := range needs {
			for s, x := range ns {
				if got, root := int(p.own[i][s].M), p.root(x); got != root {
					t.Fatalf("noLarge=%v: machine %d's request for key %d went to bucket %d, its root is %d", noLarge, i, x, got, root)
				}
			}
		}
		for j, s := range p.spans {
			if s != (span{}) {
				t.Fatalf("noLarge=%v: machine %d sits in span %v", noLarge, j/2, s)
			}
		}

		before := c.Stats().Rounds
		roots, err := PlanCombine(c, p, items, 1, func(a, b int64) int64 { return a + b })
		if err != nil {
			t.Fatal(err)
		}
		if used := c.Stats().Rounds - before; used != 1 {
			t.Errorf("noLarge=%v: PlanCombine charged %d rounds, want 1 (the route)", noLarge, used)
		}
		var large []KV[int64]
		if !noLarge {
			large = []KV[int64]{{K: int64(200 + k/2), V: -1}}
		}
		before = c.Stats().Rounds
		got, err := PlanBroadcast(c, p, roots, large, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		if !noLarge {
			want++
		}
		if used := c.Stats().Rounds - before; used != want {
			t.Errorf("noLarge=%v: PlanBroadcast charged %d rounds, want %d (scatter + answer)", noLarge, used, want)
		}
		if v, ok := got.Slot(k-1, 0); !ok || v != int64(k*(k-1)/2) {
			t.Errorf("noLarge=%v: machine %d is answered the hot key's sum %d, %v; want %d", noLarge, k-1, v, ok, k*(k-1)/2)
		}
		sameAnswers(t, fmt.Sprintf("noLarge=%v", noLarge), got, needs, oracle(needs, Flatten(roots), large))

		before = c.Stats().Rounds
		if _, err := PlanCombine(c, p, items, 2, func(a, b int64) int64 { return a + b }); !errors.Is(err, ErrUnplanned) {
			t.Errorf("noLarge=%v: a 2-word PlanCombine over a 1-word plan: err = %v, want ErrUnplanned", noLarge, err)
		}
		if _, err := PlanBroadcast(c, p, roots, large, 2); !errors.Is(err, ErrUnplanned) {
			t.Errorf("noLarge=%v: a 2-word PlanBroadcast over a 1-word plan: err = %v, want ErrUnplanned", noLarge, err)
		}
		if used := c.Stats().Rounds - before; used != 0 {
			t.Errorf("noLarge=%v: refused calls charged %d rounds", noLarge, used)
		}
	}
}

// FuzzPlan runs the differential check on fuzzed inputs over 1…16 machines.
// Byte pairs (a, b) place one request each: machine a mod K requests key
// b mod 64, and by a's top two bits the request is bare (0), carries an item
// (1, 2; value b), or is for key 100 + b mod 16, which the large machine
// holds a value of (3; a request without a large machine). The plan is for
// 1-word values when fan is 0, so every key is aligned; otherwise for values
// so wide that one tree level fans out to about fan machines, and a key with
// more requesters keeps its span and tree. The plan's Sort is led by ⌈√K⌉
// group leaders when fan is 0 or at least K (sortLeaders). With kb ≥ 128
// the small machines' caps are 12× tighter and the large machine is a
// beefy one, 64× a small one's speed and link, so the coordinator leads
// alone when there is a large machine, as it does for an aligned Sort with
// fan below K; without one, leaders lead where the tight caps leave them
// room for their groups' samples, summaries and replies.
func FuzzPlan(f *testing.F) {
	f.Add(uint8(3), false, uint8(0), []byte{0x40, 7, 0x41, 7, 0x42, 7, 0x43, 7, 0x80, 9, 0xc1, 3, 0x02, 11})
	f.Add(uint8(15), false, uint8(0), []byte{0x40, 1, 0x45, 1, 0x4a, 1, 0x4f, 1, 0x53, 1, 0xc0, 0, 0xc0, 16})
	f.Add(uint8(0), true, uint8(0), []byte{0x40, 5, 0x80, 5, 0x00, 6})
	f.Add(uint8(7), true, uint8(0), []byte{})
	f.Add(uint8(128+15), false, uint8(0), []byte{0x40, 1, 0x45, 1, 0x4a, 1, 0x4f, 1, 0x53, 1, 0xc0, 0, 0xc0, 16})
	f.Add(uint8(128+15), true, uint8(0), []byte{0x40, 1, 0x45, 1, 0x4a, 1, 0x4f, 1, 0x53, 1, 0xc0, 0, 0xc0, 16})
	f.Fuzz(func(t *testing.T, kb uint8, noLarge bool, fan uint8, data []byte) {
		k := int(kb)%16 + 1
		cfg := mpc.Config{N: 64, M: 512, K: k, Seed: 3, NoLarge: noLarge}
		if kb >= 128 {
			cfg.CSmall = 0.5
			cfg.Profile = mpc.UniformProfile(cfg.DeriveK())
			cfg.Profile.LargeCost = 1.0 / 32
		}
		c, err := mpc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r := sortLeaders(c, split{}).r(); kb >= 128 && !noLarge && r > 1 || kb < 128 && k >= 2 && r == 1 {
			t.Fatalf("K=%d CSmall=%v noLarge=%v: %d leaders", k, cfg.CSmall, noLarge, r)
		}
		planWords := 1
		if fan > 0 {
			planWords = max(1, c.MinSmallCap()/(2*int(fan))-1)
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
		checkPlan(t, c, in, planWords)
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
		p, err := NewPlan(c, needs, 1)
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
	_, err := DisseminateFromLarge(c, [][]int64{{7}}, []KV[int64]{{K: 7, V: 1}}, 1)
	if !errors.Is(err, mpc.ErrNeedsLarge) {
		t.Fatalf("err = %v, want ErrNeedsLarge", err)
	}
	if c.Rounds() != 0 {
		t.Errorf("refused call charged %d rounds", c.Rounds())
	}
}

// TestDisseminateChargesSortScatterTreeAnswer pins DisseminateFromLarge's
// round cost: NewPlan's Sort of the same requests, a scatter round when the
// large machine holds values, treeDepth(w, b) tree rounds for the plan's
// widest span of w machines — read off a twin plan's buckets
// (layoutWidest), none when every key is aligned — and the answer round;
// nothing for finding the spans. Every machine requests the hot keys 7 and
// 999, so they are aligned on a default cluster, where K ≤ b, and keep a
// span and a tree where one machine's small capacity cuts b below K.
func TestDisseminateChargesSortScatterTreeAnswer(t *testing.T) {
	const k, vwords = 128, 1
	small := mpc.UniformProfile(k)
	small.CapScale[k/2] = 0.006 // room for the splitter list, not for K children
	for _, tc := range []struct {
		name   string
		cfg    mpc.Config
		values bool
		tree   bool
	}{
		{"default", mpc.Config{}, true, false},
		{"default, no values", mpc.Config{}, false, false},
		{"NoLarge, no values", mpc.Config{NoLarge: true}, false, false},
		{"one small-capacity machine", mpc.Config{Profile: small}, true, true},
	} {
		cfg := tc.cfg
		cfg.N, cfg.M, cfg.K, cfg.Seed = 256, 2048, k, 42
		c, err := mpc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := mpc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, needs := dupValues(k)
		p, err := NewPlan(twin, needs, vwords)
		if err != nil {
			t.Fatal(err)
		}
		b := branching(c, vwords+1)
		depth := treeDepth(layoutWidest(p), b)
		if (depth > 0) != tc.tree || (b >= k) == tc.tree {
			t.Fatalf("%s: branching %d over K=%d, tree depth %d, want a tree: %v", tc.name, b, k, depth, tc.tree)
		}
		var values []KV[int64]
		if tc.values {
			for x := int64(0); x < 3*k; x++ {
				values = append(values, KV[int64]{K: x, V: x})
			}
		}
		keys := make([][]SortKey, k) // the request items' sort keys
		for i := range keys {
			for _, x := range needs[i] {
				keys[i] = append(keys[i], requestKey(request{Key: x, M: int32(i)}))
			}
		}
		// The plan's Sort is aligned (NewPlan), so its leaders are the ones
		// an aligned Sort picks (sortLeaders).
		before := c.Rounds()
		if _, _, err := sortSplit(c, keys, requestWords, identKey, split{align: b, spans: true}); err != nil {
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
		sameAnswers(t, tc.name, got, needs, oracle(needs, values))
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
	got, err := DisseminateFromLarge(c, needs, []KV[int64]{{K: 3, V: 30}, {K: 5, V: 50}, {K: 9, V: 90}}, 1)
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
		if _, err := DisseminateFromLarge(c, needs, []KV[int64]{{K: 5, V: 50}}, 1); !errors.Is(err, ErrNeedsOrder) {
			t.Fatalf("needs %v: err = %v, want ErrNeedsOrder", bad, err)
		} else if strings.Count(err.Error(), "prims:") != 1 {
			t.Errorf("needs %v: %q repeats its prefix", bad, err)
		}
		if _, err := NewPlan(c, needs, 1); !errors.Is(err, ErrNeedsOrder) {
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

// TestPresenceFlagsShipKeysAlone pins a 0-width collective, a presence
// flag's: a PlanCombine partial and a PlanBroadcast answer carry one word,
// their key, and a large value's scatter entry costs only its key, in
// KeyRunWords' shorter form. Machine i requests keys 8i…8i+63, so every key
// below 8K+56 is requested, eight times; the large machine flags a run of
// 200 consecutive keys and every seventh key past it, and each machine flags
// its own first key through the combine.
func TestPresenceFlagsShipKeysAlone(t *testing.T) {
	tr := trace.New()
	c, err := mpc.New(mpc.Config{N: 256, M: 2048, Seed: 42, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	k := c.K()
	needs, items := make([][]int64, k), make([][]KV[bool], k)
	for i := range needs {
		for x := 8 * i; x < 8*i+64; x++ {
			needs[i] = append(needs[i], int64(x))
		}
		items[i] = []KV[bool]{{K: int64(8 * i), V: true}}
	}
	var large []KV[bool]
	for x := int64(0); x < int64(8*k+56); x++ {
		if x < 200 || x%7 == 0 {
			large = append(large, KV[bool]{K: x, V: true})
		}
	}
	p, err := NewPlan(c, needs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.widest > 0 {
		t.Fatalf("the plan has a %d-machine span; the pins below assume every key aligned", p.widest)
	}
	roots, err := PlanCombine(c, p, items, 0, func(a, b bool) bool { return a || b })
	if err != nil {
		t.Fatal(err)
	}
	fromRoots, err := PlanBroadcast(c, p, roots, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	fromLarge, err := PlanBroadcast(c, p, nil, large, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, "from roots", fromRoots, needs, oracle(needs, Flatten(items)))
	sameAnswers(t, "from large", fromLarge, needs, oracle(needs, large))

	perRoot := make([][]KV[bool], k)
	for _, kv := range large {
		perRoot[p.root(kv.K)] = append(perRoot[p.root(kv.K)], kv)
	}
	var scatter int64
	for _, kvs := range perRoot {
		scatter += int64(KeyRunWords(kvs, KVKey[bool]))
	}
	answered := func(a Answers[bool]) (n int64) {
		for _, h := range a.has {
			if h {
				n++
			}
		}
		return n
	}
	rounds := tr.Rounds()
	var answers []int64
	for _, r := range rounds {
		if r.Phase == "broadcast" {
			answers = append(answers, r.Words)
		}
	}
	want := []int64{answered(fromRoots), answered(fromLarge)}
	if !slices.Equal(answers, want) {
		t.Errorf("answer rounds carry %v words, want %v: one word an answer", answers, want)
	}
	seen := map[string]int{}
	for _, r := range rounds {
		seen[r.Phase]++
		switch r.Phase {
		case "aggregate":
			if r.Words != int64(k) {
				t.Errorf("the combine's route round carries %d words, want %d: one word a partial", r.Words, k)
			}
		case "broadcast/scatter":
			if r.Words != scatter || scatter >= int64(len(large)) {
				t.Errorf("the scatter round carries %d words, want KeyRunWords' %d, below a word a key (%d)", r.Words, scatter, len(large))
			}
		}
	}
	if seen["aggregate"] != 1 || seen["broadcast/scatter"] != 1 {
		t.Errorf("%d route and %d scatter rounds, want 1 each", seen["aggregate"], seen["broadcast/scatter"])
	}
}

// TestPlanRouteChargesAWordARequest: a plan's request is charged its key
// alone, requestWords = 1 (DESIGN.md §1): the requester is the sender of
// the chunk it rides in, and B is always 1. The route round — the last of
// the run, under "plan/sort" — carries exactly a word a request: machine i
// sends one for each of its needs and bucket i receives one for each
// request the plan routed to it. Checked where ⌈√K⌉ leaders sort aligned
// keys (K = 16) and where the coordinator sorts alone and keys keep spans
// (K = 128, one machine's capacity cutting the branching below K).
func TestPlanRouteChargesAWordARequest(t *testing.T) {
	const k = 128
	small := mpc.UniformProfile(k)
	small.CapScale[k/2] = 0.006
	for _, tc := range []struct {
		cfg     mpc.Config
		leaders bool
	}{
		{mpc.Config{N: 4096, M: 32768, K: 16}, true},
		{mpc.Config{N: 256, M: 2048, K: k, Profile: small}, false},
	} {
		tr := trace.New()
		cfg := tc.cfg
		cfg.Seed, cfg.Trace = 7, tr
		c, err := mpc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(uint64(cfg.K))
		keys := make([][]int64, cfg.K)
		for i := range keys {
			for range 300 {
				keys[i] = append(keys[i], rng.Int64N(int64(cfg.N)))
			}
		}
		needs, _ := DistinctSlots(keys)
		p, err := NewPlan(c, needs, 1)
		if err != nil {
			t.Fatal(err)
		}
		b := branching(c, 2)
		if led := sortLeaders(c, split{align: b, spans: true}).r() > 1; led != tc.leaders || led == (p.widest > 0) {
			t.Fatalf("K=%d: leaders %v and a %d-machine widest span, want leaders %v and a span %v", cfg.K, led, p.widest, tc.leaders, !tc.leaders)
		}
		rounds := tr.Rounds()
		route := rounds[len(rounds)-1]
		if route.Phase != "plan/sort" {
			t.Fatalf("K=%d: the plan's last round is under %q, want the route's plan/sort", cfg.K, route.Phase)
		}
		at := func(words []int, i int) int {
			if 1+i < len(words) {
				return words[1+i]
			}
			return 0
		}
		requests := 0
		for i := 0; i < cfg.K; i++ {
			requests += len(needs[i])
			if send, recv := at(route.SendWords, i), at(route.RecvWords, i); send != len(needs[i]) || recv != len(p.reqs[i]) {
				t.Errorf("K=%d: machine %d sends %d and receives %d route words for %d and %d requests, want a word each",
					cfg.K, i, send, recv, len(needs[i]), len(p.reqs[i]))
			}
		}
		if route.Words != int64(requests) {
			t.Errorf("K=%d: the route round carries %d words for %d requests, want a word each", cfg.K, route.Words, requests)
		}
	}
}
