// Package prims implements the paper's algorithmic toolbox (§2) as real
// multi-round protocols on the mpc simulator:
//
//   - Claim 1 (Sorting): a coordinator-based sample sort, O(1) rounds;
//   - Claim 2 (Aggregation): local combine → sort by key → machine-range
//     trees with capacity-bounded branching (the paper's trees with
//     branching n^γ), results at the range roots and optionally gathered to
//     the large machine;
//   - Claim 3 (Dissemination): the same range trees run downward
//     (SegmentedBroadcast), delivering per-key values to every machine that
//     requested the key;
//   - Claim 4 (Arranging nodes): sort directed edges by source, report the
//     per-key machine runs to the large machine (at most n + K - 1 runs by
//     contiguity), enabling the "collect the k lightest edges of each
//     vertex" pattern used by the MST and matching algorithms.
//
// Every primitive is charged its true round cost through mpc.Exchange; none
// of them moves information outside the model.
package prims

import (
	"fmt"

	"hetmpc/internal/mpc"
	"hetmpc/internal/xrand"
)

// KV pairs an int64 key with a value. Composite keys (vertex pairs etc.) are
// packed into the int64 by the caller.
type KV[V any] struct {
	K int64
	V V
}

// coordinator returns the machine id that plays the coordinator role:
// the large machine when present, otherwise small machine 0.
func coordinator(c *mpc.Cluster) int {
	if c.HasLarge() {
		return mpc.Large
	}
	return 0
}

// coordCap returns the coordinator's capacity.
func coordCap(c *mpc.Cluster) int {
	if c.HasLarge() {
		return c.LargeCap()
	}
	return c.SmallCapOf(0)
}

// branching returns the tree branching factor for payloads of `words` words:
// as large as possible while a parent can feed all children in one round
// within half its capacity. This is the simulator's concrete version of the
// paper's "trees with branching factor n^γ". Under capacity-skewed profiles
// the bound is the smallest machine's capacity, since any machine can land
// anywhere in a range tree.
func branching(c *mpc.Cluster, words int) int {
	if words < 1 {
		words = 1
	}
	b := c.MinSmallCap() / (2 * words)
	if b < 2 {
		b = 2
	}
	return b
}

// treeDepth returns the number of edge-levels of a B-ary heap over size
// nodes (0 for size <= 1).
func treeDepth(size, b int) int {
	d := 0
	span := 1
	for span < size {
		span = span*b + 1
		d++
	}
	return d
}

// posDepth returns the depth of heap position p in a B-ary heap.
func posDepth(p, b int) int {
	d := 0
	for p > 0 {
		p = (p - 1) / b
		d++
	}
	return d
}

// posParent returns the heap parent position of p (p > 0).
func posParent(p, b int) int { return (p - 1) / b }

// posChildren appends the heap children of p that are < size.
func posChildren(p, b, size int) []int {
	out := make([]int, 0, b)
	for j := 1; j <= b; j++ {
		ch := b*p + j
		if ch >= size {
			break
		}
		out = append(out, ch)
	}
	return out
}

// span is a key whose sorted run covers machines A..B (inclusive, B > A).
type span struct {
	Key  int64
	A, B int
}

// boundsReport is one machine's (firstKey, lastKey, n>0) report.
type boundsReport struct {
	First, Last int64
	NonEmpty    bool
}

// chainSpans computes, from the per-machine boundary reports of sorted data,
// the set of keys whose runs span more than one machine, bridging empty
// machines that sit inside a run.
func chainSpans(bounds []boundsReport) []span {
	var spans []span
	i := 0
	k := len(bounds)
	for i < k {
		if !bounds[i].NonEmpty {
			i++
			continue
		}
		key := bounds[i].Last
		// Find the furthest machine j > i whose first key equals key,
		// allowing empty machines in between.
		j := i
		probe := i + 1
		for probe < k {
			if !bounds[probe].NonEmpty {
				probe++
				continue
			}
			if bounds[probe].First == key {
				j = probe
				if bounds[probe].Last != key {
					break
				}
				probe++
				continue
			}
			break
		}
		if j > i {
			spans = append(spans, span{Key: key, A: i, B: j})
			// Continue scanning from j: j's last key may itself span further.
			if bounds[j].Last == key {
				i = j + 1
			} else {
				i = j
			}
			continue
		}
		i++
	}
	return spans
}

// reportBounds runs one round in which every machine reports its
// (firstKey, lastKey) to the coordinator; the coordinator returns the chain
// spans. firstLast(i) must return machine i's report.
func reportBounds(c *mpc.Cluster, firstLast func(i int) boundsReport) ([]span, error) {
	outs := make([][]mpc.Msg, c.K())
	for i := 0; i < c.K(); i++ {
		br := firstLast(i)
		outs[i] = []mpc.Msg{{To: coordinator(c), Words: 3, Data: br}}
	}
	ins, inLarge, err := c.Exchange(outs, nil)
	if err != nil {
		return nil, err
	}
	inbox := inLarge
	if !c.HasLarge() {
		inbox = ins[0]
	}
	bounds := make([]boundsReport, c.K())
	for _, m := range inbox {
		br, ok := m.Data.(boundsReport)
		if !ok {
			return nil, fmt.Errorf("prims: unexpected bounds payload %T", m.Data)
		}
		bounds[m.From] = br
	}
	return chainSpans(bounds), nil
}

// spanInstr tells a machine it is part of key Key's run over machines A..B.
type spanInstr struct {
	Key  int64
	A, B int
}

// sendSpanInstructions has the coordinator tell every machine of every span
// which (key, A, B) ranges it belongs to. One machine can be in at most two
// spans. Costs one round.
func sendSpanInstructions(c *mpc.Cluster, spans []span) ([][]spanInstr, error) {
	out := make([]mpc.Msg, 0, len(spans)*2)
	for _, s := range spans {
		for m := s.A; m <= s.B; m++ {
			out = append(out, mpc.Msg{To: m, Words: 3, Data: spanInstr(s)})
		}
	}
	var (
		ins [][]mpc.Msg
		err error
	)
	if c.HasLarge() {
		ins, _, err = c.Exchange(nil, out)
	} else {
		outs := make([][]mpc.Msg, c.K())
		outs[0] = out
		ins, _, err = c.Exchange(outs, nil)
	}
	if err != nil {
		return nil, err
	}
	instr := make([][]spanInstr, c.K())
	for i, inbox := range ins {
		for _, m := range inbox {
			si, ok := m.Data.(spanInstr)
			if !ok {
				return nil, fmt.Errorf("prims: unexpected span payload %T", m.Data)
			}
			instr[i] = append(instr[i], si)
		}
	}
	return instr, nil
}

// BroadcastValue delivers one value held by the coordinator to every small
// machine, using a direct send when it fits the coordinator's round budget
// and a capacity-bounded B-ary tree otherwise. Returns the per-machine
// copies.
func BroadcastValue[V any](c *mpc.Cluster, val V, words int) ([]V, error) {
	defer c.Span("broadcast").End()
	k := c.K()
	out := make([]V, k)
	direct := k*words <= coordCap(c)/2
	if direct {
		msgs := make([]mpc.Msg, 0, k)
		for i := 0; i < k; i++ {
			msgs = append(msgs, mpc.Msg{To: i, Words: words, Data: val})
		}
		var err error
		if c.HasLarge() {
			_, _, err = c.Exchange(nil, msgs)
		} else {
			outs := make([][]mpc.Msg, k)
			outs[0] = msgs
			// machine 0 keeps its own copy locally
			outs[0] = outs[0][1:]
			_, _, err = c.Exchange(outs, nil)
		}
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] = val
		}
		return out, nil
	}
	// Tree broadcast rooted at machine 0.
	if c.HasLarge() {
		if _, _, err := c.Exchange(nil, []mpc.Msg{{To: 0, Words: words, Data: val}}); err != nil {
			return nil, err
		}
	}
	b := branching(c, words)
	depth := treeDepth(k, b)
	have := make([]bool, k)
	have[0] = true
	out[0] = val
	for d := 0; d < depth; d++ {
		outs := make([][]mpc.Msg, k)
		for p := 0; p < k; p++ {
			if !have[p] || posDepth(p, b) != d {
				continue
			}
			for _, ch := range posChildren(p, b, k) {
				outs[p] = append(outs[p], mpc.Msg{To: ch, Words: words, Data: out[p]})
			}
		}
		ins, _, err := c.Exchange(outs, nil)
		if err != nil {
			return nil, err
		}
		for i, inbox := range ins {
			for _, m := range inbox {
				v, ok := m.Data.(V)
				if !ok {
					return nil, fmt.Errorf("prims: unexpected broadcast payload %T", m.Data)
				}
				out[i] = v
				have[i] = true
			}
		}
	}
	return out, nil
}

// GatherToLarge sends every machine's items to the large machine and returns
// them concatenated in (machine, local index) order. The receive cap of the
// large machine bounds the legal volume; violations surface as ErrCapacity.
func GatherToLarge[T any](c *mpc.Cluster, data [][]T, itemWords int) ([]T, error) {
	if !c.HasLarge() {
		return nil, fmt.Errorf("prims: GatherToLarge: %w", mpc.ErrNeedsLarge)
	}
	defer c.Span("gather").End()
	type chunk struct{ Items []T }
	outs := make([][]mpc.Msg, c.K())
	total := 0
	for i := range data {
		if i >= c.K() {
			break
		}
		if len(data[i]) == 0 {
			continue
		}
		total += len(data[i])
		outs[i] = []mpc.Msg{{To: mpc.Large, Words: len(data[i]) * itemWords, Data: chunk{Items: data[i]}}}
	}
	_, inLarge, err := c.Exchange(outs, nil)
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, total)
	for _, m := range inLarge {
		ch, ok := m.Data.(chunk)
		if !ok {
			return nil, fmt.Errorf("prims: unexpected gather payload %T", m.Data)
		}
		out = append(out, ch.Items...)
	}
	return out, nil
}

// SumToLarge adds one int64 per machine at the large machine (one round).
func SumToLarge(c *mpc.Cluster, vals []int64) (int64, error) {
	if !c.HasLarge() {
		return 0, fmt.Errorf("prims: SumToLarge: %w", mpc.ErrNeedsLarge)
	}
	defer c.Span("sum").End()
	outs := make([][]mpc.Msg, c.K())
	for i := 0; i < c.K(); i++ {
		var v int64
		if i < len(vals) {
			v = vals[i]
		}
		outs[i] = []mpc.Msg{{To: mpc.Large, Words: 1, Data: v}}
	}
	_, inLarge, err := c.Exchange(outs, nil)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, m := range inLarge {
		v, ok := m.Data.(int64)
		if !ok {
			return 0, fmt.Errorf("prims: unexpected sum payload %T", m.Data)
		}
		sum += v
	}
	return sum, nil
}

// SumAll adds one int64 per machine at the coordinator and broadcasts the
// total back to every machine, so all machines (and the caller) learn it.
// Works with or without a large machine. Two-plus rounds.
func SumAll(c *mpc.Cluster, vals []int64) (int64, error) {
	defer c.Span("sum").End()
	outs := make([][]mpc.Msg, c.K())
	for i := 0; i < c.K(); i++ {
		var v int64
		if i < len(vals) {
			v = vals[i]
		}
		outs[i] = []mpc.Msg{{To: coordinator(c), Words: 1, Data: v}}
	}
	ins, inLarge, err := c.Exchange(outs, nil)
	if err != nil {
		return 0, err
	}
	inbox := inLarge
	if !c.HasLarge() {
		inbox = ins[0]
	}
	var sum int64
	for _, m := range inbox {
		v, ok := m.Data.(int64)
		if !ok {
			return 0, fmt.Errorf("prims: unexpected sum payload %T", m.Data)
		}
		sum += v
	}
	if _, err := BroadcastValue(c, sum, 1); err != nil {
		return 0, err
	}
	return sum, nil
}

// ScatterFromLarge routes per-machine message lists from the large machine
// (one round). msgs[i] is delivered to machine i.
func ScatterFromLarge[T any](c *mpc.Cluster, items [][]T, itemWords int) ([][]T, error) {
	if !c.HasLarge() {
		return nil, fmt.Errorf("prims: ScatterFromLarge: %w", mpc.ErrNeedsLarge)
	}
	defer c.Span("scatter").End()
	type chunk struct{ Items []T }
	out := make([]mpc.Msg, 0, len(items))
	for i := range items {
		if len(items[i]) == 0 {
			continue
		}
		out = append(out, mpc.Msg{To: i, Words: len(items[i]) * itemWords, Data: chunk{Items: items[i]}})
	}
	ins, _, err := c.Exchange(nil, out)
	if err != nil {
		return nil, err
	}
	res := make([][]T, c.K())
	for i, inbox := range ins {
		for _, m := range inbox {
			ch, ok := m.Data.(chunk)
			if !ok {
				return nil, fmt.Errorf("prims: unexpected scatter payload %T", m.Data)
			}
			res[i] = append(res[i], ch.Items...)
		}
	}
	return res, nil
}

// BroadcastSeed derives a fresh shared random seed at the coordinator and
// broadcasts it (the paper's "one machine generates O(polylog n) random bits
// and disseminates them", App. C.1). Returns the seed.
func BroadcastSeed(c *mpc.Cluster) (uint64, error) {
	defer c.Span("seed").End()
	var seed uint64
	if c.HasLarge() {
		seed = c.LargeRand().Uint64()
	} else {
		seed = c.Rand(0).Uint64()
	}
	if _, err := BroadcastValue(c, seed, 1); err != nil {
		return 0, err
	}
	return seed, nil
}

// hashKeyToMachine places key on a machine pseudo-uniformly.
func hashKeyToMachine(key int64, k int) int {
	return int(xrand.SplitMix64(uint64(key)+0x9e37) % uint64(k))
}

// SortKVsByKey sorts a KV slice by key, stable among equal keys (the radix
// local sort's index tiebreak reproduces the stable order exactly).
func SortKVsByKey[V any](kvs []KV[V]) {
	SortLocal(kvs, func(kv KV[V]) SortKey { return SortKey{A: kv.K} })
}
