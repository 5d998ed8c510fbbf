package prims

import (
	"errors"
	"fmt"

	"hetmpc/internal/mpc"
)

// ErrUnplanned refuses an input a Plan does not route: a PlanCombine key a
// machine does not request, or a PlanBroadcast value held away from its
// key's root. It is returned before any round is charged.
var ErrUnplanned = errors.New("prims: input outside the plan")

// ErrNeedsOrder refuses needs that do not strictly ascend on a machine (a key
// twice, or out of order). NewPlan returns it before any round is charged.
var ErrNeedsOrder = errors.New("prims: needs not strictly ascending")

// Plan is what one Sort of a request set leaves, kept for every PlanBroadcast
// and PlanCombine over that set (DESIGN.md §1): the coordinator's splitter
// list, each bucket's requests and spans, and on machine i the bucket each of
// its own requests went to, read off its cuts. The root of key x, where its
// values go, is the bucket of (x, 0, 0). A plan is valid for as long as its
// request set is.
type Plan struct {
	sp      []SortKey
	spans   []span      // entries 2i and 2i+1 are machine i's
	reqs    [][]request // bucket i's requests, by (key, requester)
	own     [][]request // machine i's requests, slot by slot; M is the bucket each went to
	starts  []int       // machine i's slots are [starts[i], starts[i+1]) of all machines'
	spanned bool        // some machine sits in a span
}

// request is a request item: key Key and machine M — the requester, among
// the requests routed to a bucket; the bucket, among a machine's own
// requests. A request sorts by (Key, 1, requester), so the root of Key, the
// bucket of (Key, 0, 0), is at or before every bucket its requests land in.
type request struct {
	Key int64
	M   int32
}

func requestKey(r request) SortKey { return SortKey{A: r.Key, B: 1, C: int64(r.M)} }

// span is a key whose requests may cover machines A..B (inclusive, B > A);
// A, the root, is the bucket of the key's values. The zero span is no span.
type span struct {
	Key  int64
	A, B int
}

// NewPlan builds the plan of needs by one Sort of its request items, 3 words
// each, under the "plan" span. Each machine's needs strictly ascend, as
// DistinctSlots builds them (else ErrNeedsOrder): slot s of machine i, where
// its answers for needs[i][s] land, is fixed for the plan's life.
func NewPlan(c *mpc.Cluster, needs [][]int64) (*Plan, error) {
	if err := checkBuckets(c, "NewPlan needs", needs); err != nil {
		return nil, err
	}
	for i, ns := range needs {
		for j := 1; j < len(ns); j++ {
			if ns[j] <= ns[j-1] {
				return nil, fmt.Errorf("%w: machine %d needs key %d after key %d", ErrNeedsOrder, i, ns[j], ns[j-1])
			}
		}
	}
	defer c.Span("plan").End()
	k := c.K()
	// Every machine's requests are carved from one array; machine i's share
	// sits at [starts[i], starts[i+1]).
	starts := make([]int, k+1)
	for i := 0; i < k; i++ {
		starts[i+1] = starts[i] + lenAt(needs, i)
	}
	flat := make([]request, starts[k])
	items := make([][]request, k)
	c.Each(func(i int) {
		its := flat[starts[i]:starts[i]:starts[i+1]]
		if i < len(needs) {
			for _, x := range needs[i] {
				its = append(its, request{Key: x, M: int32(i)})
			}
		}
		items[i] = its
	})
	sorted, lay, err := sortSplit(c, items, sortKeyWords, requestKey, true)
	if err != nil {
		return nil, err
	}

	// The buckets are the routed requests, and a machine's own requests —
	// its run (items[i], already in key order) — take their buckets off its
	// cuts, in place.
	p := &Plan{sp: lay.sp, spans: lay.spans, reqs: sorted, own: items, starts: starts}
	c.Each(func(i int) {
		lo := 0
		for _, ct := range lay.cuts[i] {
			for j := lo; j < lo+int(ct.Count); j++ {
				items[i][j].M = ct.Bucket
			}
			lo += int(ct.Count)
		}
	})
	for _, s := range p.spans {
		p.spanned = p.spanned || s.B > s.A
	}
	return p, nil
}

// DistinctSlots is the one dedup behind every needs list: per machine,
// keys[i]'s distinct values, strictly ascending, in keys[i]'s own array, and
// each position's slot in them: needs[i][slots[i][j]] == keys[i][j]. It
// sorts (key, position) pairs — requests, M the position — and compacts.
func DistinctSlots(keys [][]int64) (needs [][]int64, slots [][]int32) {
	n, most := 0, 0
	for _, ks := range keys {
		n, most = n+len(ks), max(most, len(ks))
	}
	pairs, flat := make([]request, most), make([]int32, n)
	needs, slots = make([][]int64, len(keys)), make([][]int32, len(keys))
	for i, ks := range keys {
		ps := pairs[:len(ks)]
		for j, x := range ks {
			ps[j] = request{Key: x, M: int32(j)}
		}
		SortLocal(ps, func(r request) SortKey { return SortKey{A: r.Key} })
		out, sl := ks[:0], flat[:len(ks):len(ks)]
		for _, r := range ps {
			if len(out) == 0 || out[len(out)-1] != r.Key {
				out = append(out, r.Key)
			}
			sl[r.M] = int32(len(out) - 1)
		}
		needs[i], slots[i], flat = out, sl, flat[len(ks):]
	}
	return needs, slots
}

// root returns the root of key x (rootOf).
func (p *Plan) root(x int64) int { return rootOf(p.sp, x) }

// rootOf returns the bucket of (x, 0, 0) under the splitter list sp: the
// number of splitters at or below it, walkBuckets' bucket rule.
func rootOf(sp []SortKey, x int64) int {
	v := SortKey{A: x}
	return bisect(0, len(sp), func(j int) bool { return v.Less(sp[j]) })
}

// splitterSpans returns the at most two spans machine i of k belongs to after
// a Sort that routed requests by (x, 1, requester) through the splitter list
// sp — a function of sp alone, so every machine of a span computes the same
// one. Only the keys of the machine's own two bucket bounds, sp[i-1].A and
// sp[i].A, can have requests on both sides of it. For such an x the span runs
// from x's root to the first bucket whose splitter's key exceeds x, the last
// a request for x can land in. That is a superset of the machines that do
// hold x: a bound that falls between two keys' runs still names a 2-machine
// span.
func splitterSpans(sp []SortKey, k, i int) (spans [2]span) {
	sp = sp[:min(len(sp), k-1)]
	n := 0
	for s := max(i-1, 0); s <= i && s < len(sp); s++ {
		x := sp[s].A
		if n > 0 && spans[0].Key == x {
			continue
		}
		lo := rootOf(sp, x)
		hi := bisect(lo, len(sp), func(j int) bool { return sp[j].A > x })
		if lo <= i && lo < hi {
			spans[n] = span{Key: x, A: lo, B: hi}
			n++
		}
	}
	return spans
}

// lenAt is len(data[i]), 0 past the end of data.
func lenAt[T any](data [][]T, i int) int {
	if i < len(data) {
		return len(data[i])
	}
	return 0
}

// SortedKVs returns m's entries as a KV slice sorted by key: PlanBroadcast's
// large values from a map, in an order that does not depend on the map's.
func SortedKVs[V any](m map[int64]V) []KV[V] {
	kvs := make([]KV[V], 0, len(m))
	for key, v := range m {
		kvs = append(kvs, KV[V]{K: key, V: v})
	}
	SortKVsByKey(kvs)
	return kvs
}

// DisseminateFromLarge is Claim 3 for a request set used once, with every
// value on the large machine: machine i needs the keys in needs[i], and the
// Answers hold, in its slot s, the value of needs[i][s] if it has one. It is
// NewPlan of needs and one PlanBroadcast of values over it, so it charges a
// Sort, the scatter round, treeDepth(K, b) tree rounds and the answer round.
// Values without a large machine are refused with mpc.ErrNeedsLarge before
// any round.
func DisseminateFromLarge[V any](c *mpc.Cluster, needs [][]int64, values map[int64]V, vwords int) (Answers[V], error) {
	if len(values) > 0 && !c.HasLarge() {
		return Answers[V]{}, fmt.Errorf("prims: DisseminateFromLarge: %w", mpc.ErrNeedsLarge)
	}
	p, err := NewPlan(c, needs)
	if err != nil {
		return Answers[V]{}, err
	}
	return PlanBroadcast(c, p, nil, SortedKVs(values), vwords)
}

// PlanBroadcast implements Claim 3 over a plan, with no Sort: small[i] must
// sit at their keys' roots, as PlanCombine leaves them (else ErrUnplanned),
// and the coordinator routes the large values straight to their roots (one
// scatter round; mpc.ErrNeedsLarge without a large machine); then broadcast's
// treeDepth(K, b)+1 rounds deliver them, as Answers: in machine i's slot s
// the value of needs[i][s], if it has one. Of a key's values the first wins:
// a root's own in list order, then the large machine's in list order.
//
// A large value goes to its key's root whether or not anyone requests the
// key, and the root of a key past every request is the last bucket: a caller
// sends only values of keys that can be requested (DESIGN.md §1).
func PlanBroadcast[V any](c *mpc.Cluster, p *Plan, small [][]KV[V], large []KV[V], vwords int) (Answers[V], error) {
	if err := checkBuckets(c, "PlanBroadcast small", small); err != nil {
		return Answers[V]{}, err
	}
	for i := range small {
		for _, kv := range small[i] {
			if r := p.root(kv.K); r != i {
				return Answers[V]{}, fmt.Errorf("prims: PlanBroadcast: %w: machine %d holds a value of key %d, whose root is machine %d",
					ErrUnplanned, i, kv.K, r)
			}
		}
	}
	if len(large) > 0 && !c.HasLarge() {
		return Answers[V]{}, fmt.Errorf("prims: PlanBroadcast large: %w", mpc.ErrNeedsLarge)
	}
	defer c.Span("broadcast").End()
	k := c.K()
	var injected [][]KV[V]
	if len(large) > 0 {
		var err error
		if injected, err = scatterTo(c, p, large, vwords); err != nil {
			return Answers[V]{}, err
		}
	}
	// A root's values: its own, then the large machine's, stably sorted.
	starts := make([]int, k+1)
	for i := 0; i < k; i++ {
		starts[i+1] = starts[i] + lenAt(small, i) + lenAt(injected, i)
	}
	flat := make([]KV[V], starts[k])
	vals := make([][]KV[V], k)
	c.Each(func(i int) {
		vs := flat[starts[i]:starts[i]:starts[i+1]]
		if i < len(small) {
			vs = append(vs, small[i]...)
		}
		if i < len(injected) {
			vs = append(vs, injected[i]...)
		}
		SortKVsByKey(vs)
		vals[i] = vs
	})
	return broadcast(c, p, vals, vwords)
}

// scatterTo ships the large machine's values to their roots in one round
// (ScatterFromLarge), in list order per machine; the per-machine lists are
// carved from one array.
func scatterTo[V any](c *mpc.Cluster, p *Plan, large []KV[V], vwords int) ([][]KV[V], error) {
	k := c.K()
	starts := make([]int, k+1)
	for _, kv := range large {
		starts[p.root(kv.K)+1]++
	}
	for i := 0; i < k; i++ {
		starts[i+1] += starts[i]
	}
	flat := make([]KV[V], len(large))
	perMachine := make([][]KV[V], k)
	for i := range perMachine {
		perMachine[i] = flat[starts[i]:starts[i]:starts[i+1]]
	}
	for _, kv := range large {
		m := p.root(kv.K)
		perMachine[m] = append(perMachine[m], kv)
	}
	return ScatterFromLarge(c, perMachine, vwords+1)
}

// broadcast delivers vals[i] — machine i's values, each at its key's root,
// sorted by key, the first of a key's values winning — to every request of
// the plan: each span's root forwards its key's value down a capacity-bounded
// interval tree over the span (the paper's trees of Claims 2/3,
// treeDepth(K, b) rounds), and every machine answers the requests routed to
// it (1 round). A request for a key with no value is left unanswered.
func broadcast[V any](c *mpc.Cluster, p *Plan, vals [][]KV[V], vwords int) (Answers[V], error) {
	k := c.K()
	spans := p.spans
	// Machine i's spans are entries 2i and 2i+1 of spans; down and has hold,
	// beside each, the span key's value once the machine has it. A root reads
	// it off the first of its values for the key; everyone else waits for
	// the tree.
	down := make([]KV[V], 2*k)
	has := make([]bool, 2*k)
	c.Each(func(i int) {
		vs := vals[i]
		for s := 2 * i; s < 2*i+2; s++ {
			si := spans[s]
			if si.A != i || si.B <= si.A {
				continue
			}
			h := bisect(0, len(vs), func(j int) bool { return vs[j].K >= si.Key })
			if h < len(vs) && vs[h].K == si.Key {
				down[s], has[s] = vs[h], true
			}
		}
	})

	// spanOf is the entry of machine i's span of key, or -1.
	spanOf := func(i int, key int64) int {
		for j := 2 * i; j < 2*i+2; j++ {
			if spans[j].B > spans[j].A && spans[j].Key == key {
				return j
			}
		}
		return -1
	}

	// Tree-down per span: the root holds the value if one exists; forward
	// level by level. fanout is the children span entry j feeds at depth d.
	b := branching(c, vwords+1)
	depth := treeDepth(k, b)
	fanout := func(j, d int) (lo, hi int) {
		si := spans[j]
		p := j/2 - si.A
		if !has[j] || posDepth(p, b) != d {
			return 0, 0 // not this level, or no value for this key
		}
		return childRange(p, b, si.B-si.A+1)
	}
	for d := 0; d < depth; d++ {
		n := 0
		for j := range spans {
			lo, hi := fanout(j, d)
			n += hi - lo
		}
		// Every child gets the same (key, value): the sender's down entry is
		// the payload of all its messages, and the level's messages are one
		// array.
		msgs := make([]mpc.Msg, 0, n)
		outs := make([][]mpc.Msg, k)
		for i := range outs {
			sent := len(msgs)
			for j := 2 * i; j < 2*i+2; j++ {
				lo, hi := fanout(j, d)
				for ch := lo; ch < hi; ch++ {
					msgs = append(msgs, mpc.Msg{To: spans[j].A + ch, Words: vwords + 1, Data: &down[j]})
				}
			}
			outs[i] = msgs[sent:len(msgs):len(msgs)]
		}
		ins, _, err := c.Exchange(outs, nil)
		if err != nil {
			return Answers[V]{}, err
		}
		for i, inbox := range ins {
			for _, m := range inbox {
				dm, ok := m.Data.(*KV[V])
				if !ok || dm == nil {
					return Answers[V]{}, fmt.Errorf("prims: unexpected dissemination payload %T", m.Data)
				}
				if j := spanOf(i, dm.K); j >= 0 {
					down[j], has[j] = *dm, true
				}
			}
		}
	}

	// Answer the requests: the round's messages and answers are two arrays
	// carved by the request counts; one walk over each machine's requests and
	// values fills them. A key's value on a machine is the first of its own
	// values for the key, else what came down one of the machine's spans.
	starts := make([]int, k+1)
	for i := 0; i < k; i++ {
		starts[i+1] = starts[i] + len(p.reqs[i])
	}
	msgs := make([]mpc.Msg, starts[k])
	slab := make([]KV[V], starts[k])
	outs := make([][]mpc.Msg, k)
	c.Each(func(i int) {
		out, slots := msgs[starts[i]:starts[i]:starts[i+1]], slab[starts[i]:starts[i+1]]
		vs := vals[i]
		for _, r := range p.reqs[i] {
			for len(vs) > 0 && vs[0].K < r.Key {
				vs = vs[1:]
			}
			var v *V
			if len(vs) > 0 && vs[0].K == r.Key {
				v = &vs[0].V
			} else if j := spanOf(i, r.Key); j >= 0 && has[j] {
				v = &down[j].V
			}
			if v == nil {
				continue
			}
			slots[len(out)] = KV[V]{K: r.Key, V: *v}
			out = append(out, mpc.Msg{To: int(r.M), Words: vwords + 1, Data: &slots[len(out)]})
		}
		outs[i] = out
	})
	ins, _, err := c.Exchange(outs, nil)
	if err != nil {
		return Answers[V]{}, err
	}
	// Buckets answer in bucket order, each in request order, so every inbox
	// runs by ascending key, as the machine's slots do: one merge walk lays
	// it over them.
	a := Answers[V]{vals: make([]V, p.starts[k]), has: make([]bool, p.starts[k]), starts: p.starts}
	for i, inbox := range ins {
		own, s := p.own[i], 0
		for _, m := range inbox {
			kv, ok := m.Data.(*KV[V])
			if !ok || kv == nil {
				return Answers[V]{}, fmt.Errorf("prims: unexpected answer payload %T", m.Data)
			}
			for s < len(own) && own[s].Key < kv.K {
				s++
			}
			if s == len(own) || own[s].Key != kv.K {
				return Answers[V]{}, fmt.Errorf("prims: machine %d is answered key %d, which no slot of it awaits", i, kv.K)
			}
			a.vals[p.starts[i]+s], a.has[p.starts[i]+s] = kv.V, true
		}
	}
	return a, nil
}

// Answers is what PlanBroadcast delivers: slot s of machine i holds the value
// of the plan's needs[i][s], if it has one, every machine's slots cut from
// one slab at the plan's offsets. The zero Answers answers nothing.
type Answers[V any] struct {
	vals   []V
	has    []bool
	starts []int // machine i's slots are vals[starts[i]:starts[i+1]]
}

// Slot returns the value machine i was answered in slot s, and whether it
// was answered one; the zero V and false past the machines or past machine
// i's slots.
func (a Answers[V]) Slot(i, s int) (v V, ok bool) {
	if i+1 < len(a.starts) && s >= 0 && s < a.starts[i+1]-a.starts[i] {
		v, ok = a.vals[a.starts[i]+s], a.has[a.starts[i]+s]
	}
	return v, ok
}

// PlanCombine implements Claim 2 over a plan, with no Sort: machine i's items
// may carry only keys it requests (else ErrUnplanned, before any round).
// After the local combine each partial goes to the bucket its machine's own
// request for the key went to (1 round), and — if the plan has a span — in
// one span-up round (under "aggregate/span-up") every span member but the
// root hands the root its fold of the span key. Folds run in origin-machine
// order, as AggregateByKey's do, and roots[i], by ascending key, holds the
// values machine i is the root of: PlanBroadcast's small input. A bucket
// receives at most one partial per request the plan routed to it, a root one
// more per span member; past a cap the round fails with mpc.ErrCapacity.
// combine is AggregateByKey's: associative, commutative, owning both
// arguments.
func PlanCombine[V any](c *mpc.Cluster, p *Plan, items [][]KV[V], vwords int, combine func(a, b V) V) ([][]KV[V], error) {
	if err := checkBuckets(c, "PlanCombine", items); err != nil {
		return nil, err
	}
	defer c.Span("aggregate").End()
	k := c.K()
	partials := localCombineAll(c, items, combine)

	// Each partial goes where its machine's own request for the key went:
	// partials and requests both run by key and the requests' buckets do not
	// decrease, so the partials bound for one bucket are one cut.
	starts := make([]int, k+1)
	for i := 0; i < k; i++ {
		starts[i+1] = starts[i] + min(k, len(partials[i]))
	}
	cutBuf, cuts := make([]cut, starts[k]), make([][]cut, k)
	if err := c.ForSmall(func(i int) error {
		own, cs, o := p.own[i], cutBuf[starts[i]:starts[i]:starts[i+1]], 0
		for _, kv := range partials[i] {
			for o < len(own) && own[o].Key < kv.K {
				o++
			}
			if o == len(own) || own[o].Key != kv.K {
				return fmt.Errorf("prims: PlanCombine: %w: machine %d combines key %d, which it does not request", ErrUnplanned, i, kv.K)
			}
			if n := len(cs); n > 0 && cs[n-1].Bucket == own[o].M {
				cs[n-1].Count++
			} else {
				cs = append(cs, cut{Bucket: own[o].M, Count: 1})
			}
		}
		cuts[i] = cs
		return nil
	}); err != nil {
		return nil, err
	}
	// One spare slot a bucket, for the span key its machine may get as root.
	roots, err := route(c, partials, cuts, vwords+1, 1, func(kv KV[V]) SortKey { return SortKey{A: kv.K} })
	if err != nil {
		return nil, err
	}
	c.Each(func(i int) {
		roots[i] = foldRuns(roots[i], combine)
	})

	if p.spanned {
		// A machine is a non-root member of at most one span, whose key is
		// its smallest; that key's fold goes to the root.
		up := c.Span("span-up")
		outs := perMachineOuts(k)
		slab := make([]KV[V], k)
		c.Each(func(i int) {
			outs[i] = outs[i][:0]
			for _, si := range p.spans[2*i : 2*i+2] {
				if r := roots[i]; si.A < i && si.B > si.A && len(r) > 0 && r[0].K == si.Key {
					slab[i], roots[i] = r[0], r[1:]
					outs[i] = append(outs[i], mpc.Msg{To: si.A, Words: vwords + 1, Data: &slab[i]})
				}
			}
		})
		ins, _, err := c.Exchange(outs, nil)
		up.End()
		if err != nil {
			return nil, err
		}
		if err := c.ForSmall(func(i int) error {
			for _, m := range ins[i] {
				kv, ok := m.Data.(*KV[V])
				if !ok || kv == nil {
					return fmt.Errorf("prims: unexpected span-up payload %T", m.Data)
				}
				if r := roots[i]; len(r) > 0 && r[len(r)-1].K == kv.K {
					r[len(r)-1].V = combine(r[len(r)-1].V, kv.V)
				} else {
					roots[i] = append(r, *kv)
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	registerState(c, roots, vwords+1)
	return roots, nil
}
