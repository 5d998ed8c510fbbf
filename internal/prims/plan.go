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
	own     [][]request // machine i's requests, by key; M is the bucket each went to
	spanned bool        // some machine sits in a span
}

// request is a request item without its sort key: key Key and machine M —
// the requester, among the requests routed to a bucket; the bucket, among a
// machine's own requests.
type request struct {
	Key int64
	M   int32
}

// NewPlan builds the plan of needs (deduplicated keys per machine) by one
// Sort of its request items, 3 words each, under the "plan" span.
func NewPlan(c *mpc.Cluster, needs [][]int64) (*Plan, error) {
	if err := checkBuckets(c, "NewPlan needs", needs); err != nil {
		return nil, err
	}
	defer c.Span("plan").End()
	p, _, err := planSort[struct{}](c, needs, 0)
	return p, err
}

// root returns the root of key x: the number of splitters at or below
// (x, 0, 0), walkBuckets' bucket rule.
func (p *Plan) root(x int64) int {
	v := dissemKey(x, -1)
	return bisect(0, len(p.sp), func(j int) bool { return v.Less(p.sp[j]) })
}

// planSort builds the plan of needs by one Sort of its request items, keyed
// (x, 1, requester), with every list of values riding along under (x, 0, 0),
// at vwords+3 words an item. It also returns each machine's values: each at
// its key's root, sorted by key in origin order (machine by machine, the
// lists in the order given; Sort is stable).
func planSort[V any](c *mpc.Cluster, needs [][]int64, vwords int, values ...[][]KV[V]) (*Plan, [][]KV[V], error) {
	k := c.K()
	type item struct {
		Key int64
		Req int32 // requester, -1 for a value
		Val V
	}
	// Every machine's items — its values, then its requests — are carved
	// from one array; machine i's share sits at [starts[i], starts[i+1]).
	starts := make([]int, k+1)
	for i := 0; i < k; i++ {
		n := lenAt(needs, i)
		for _, vs := range values {
			n += lenAt(vs, i)
		}
		starts[i+1] = starts[i] + n
	}
	flat := make([]item, starts[k])
	items := make([][]item, k)
	c.Each(func(i int) {
		its := flat[starts[i]:starts[i]:starts[i+1]]
		for _, vs := range values {
			if i < len(vs) {
				for _, kv := range vs[i] {
					its = append(its, item{Key: kv.K, Req: -1, Val: kv.V})
				}
			}
		}
		if i < len(needs) {
			for _, x := range needs[i] {
				its = append(its, item{Key: x, Req: int32(i)})
			}
		}
		items[i] = its
	})
	sorted, lay, err := sortSplit(c, items, vwords+3, func(it item) SortKey { return dissemKey(it.Key, it.Req) }, true)
	if err != nil {
		return nil, nil, err
	}

	// Every bucket splits into its requests and its values, and a machine's
	// own requests take their buckets off its cuts of its sorted run
	// (items[i], sorted in place): three arrays, carved by offsets.
	off := make([]int, k+1)
	for i := 0; i < k; i++ {
		off[i+1] = off[i] + len(sorted[i])
	}
	reqFlat, valFlat := make([]request, off[k]), make([]KV[V], off[k])
	ownFlat := make([]request, starts[k])
	p := &Plan{sp: lay.sp, spans: lay.spans, reqs: make([][]request, k), own: make([][]request, k)}
	vals := make([][]KV[V], k)
	c.Each(func(i int) {
		reqs, vs := reqFlat[off[i]:off[i]:off[i+1]], valFlat[off[i]:off[i]:off[i+1]]
		for _, it := range sorted[i] {
			if it.Req < 0 {
				vs = append(vs, KV[V]{K: it.Key, V: it.Val})
			} else {
				reqs = append(reqs, request{Key: it.Key, M: it.Req})
			}
		}
		own, lo := ownFlat[starts[i]:starts[i]:starts[i+1]], 0
		for _, ct := range lay.cuts[i] {
			for _, it := range items[i][lo : lo+int(ct.Count)] {
				if it.Req >= 0 {
					own = append(own, request{Key: it.Key, M: ct.Bucket})
				}
			}
			lo += int(ct.Count)
		}
		p.reqs[i], p.own[i], vals[i] = reqs, own, vs
	})
	for _, s := range p.spans {
		p.spanned = p.spanned || s.B > s.A
	}
	return p, vals, nil
}

// lenAt is len(data[i]), 0 past the end of data.
func lenAt[T any](data [][]T, i int) int {
	if i < len(data) {
		return len(data[i])
	}
	return 0
}

// PlanBroadcast implements Claim 3 over a plan, with no Sort: small[i] must
// sit at their keys' roots, as PlanCombine leaves them (else ErrUnplanned),
// and the coordinator routes the large values straight to their roots (one
// scatter round; mpc.ErrNeedsLarge without a large machine); then broadcast's
// treeDepth(K, b)+1 rounds deliver them. Of a key's values the first wins: a
// root's own in list order, then the large machine's in list order.
func PlanBroadcast[V any](c *mpc.Cluster, p *Plan, small [][]KV[V], large []KV[V], vwords int) ([]map[int64]V, error) {
	if err := checkBuckets(c, "PlanBroadcast small", small); err != nil {
		return nil, err
	}
	for i := range small {
		for _, kv := range small[i] {
			if r := p.root(kv.K); r != i {
				return nil, fmt.Errorf("prims: PlanBroadcast: %w: machine %d holds a value of key %d, whose root is machine %d",
					ErrUnplanned, i, kv.K, r)
			}
		}
	}
	if len(large) > 0 && !c.HasLarge() {
		return nil, fmt.Errorf("prims: PlanBroadcast large: %w", mpc.ErrNeedsLarge)
	}
	defer c.Span("broadcast").End()
	k := c.K()
	var injected [][]KV[V]
	if len(large) > 0 {
		var err error
		if injected, err = scatterTo(c, large, vwords, p.root); err != nil {
			return nil, err
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

// broadcast delivers vals[i] — machine i's values, each at its key's root,
// sorted by key, the first of a key's values winning — to every request of
// the plan: each span's root forwards its key's value down a capacity-bounded
// interval tree over the span (the paper's trees of Claims 2/3,
// treeDepth(K, b) rounds), and every machine answers the requests routed to
// it (1 round). A request for a key with no value is left unanswered.
func broadcast[V any](c *mpc.Cluster, p *Plan, vals [][]KV[V], vwords int) ([]map[int64]V, error) {
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
			return nil, err
		}
		for i, inbox := range ins {
			for _, m := range inbox {
				dm, ok := m.Data.(*KV[V])
				if !ok || dm == nil {
					return nil, fmt.Errorf("prims: unexpected dissemination payload %T", m.Data)
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
		return nil, err
	}
	result := make([]map[int64]V, k)
	for i, inbox := range ins {
		result[i] = make(map[int64]V, len(inbox))
		for _, m := range inbox {
			a, ok := m.Data.(*KV[V])
			if !ok || a == nil {
				return nil, fmt.Errorf("prims: unexpected answer payload %T", m.Data)
			}
			result[i][a.K] = a.V
		}
	}
	return result, nil
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
