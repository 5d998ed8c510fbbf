package prims

import (
	"fmt"

	"hetmpc/internal/mpc"
)

// RunPart is one machine's share of a key's sorted run.
type RunPart struct {
	Machine int
	Count   int
}

// Arranged is the product of Claim 4: items sorted so each key's run is
// contiguous across machines, with the large machine knowing every run's
// (machine, count) decomposition — i.e. M_first(v), the out-degree of v, and
// exactly how many of v's items each machine stores (the k(v,M) table used
// by the MST collection step). The large machine's view is indexed by
// position in Keys.
type Arranged[T any] struct {
	Data [][]T   // per-machine sorted items
	Keys []int64 // distinct keys in global order (large machine's view)

	parts     []RunPart // the run of Keys[p] is parts[at[p]:at[p+1]], in machine order
	at        []int
	key       func(T) int64
	itemWords int
}

// Arrange sorts the items by sortKey — whose leading component .A is the
// grouping key — and builds the run index on the large machine. Requires a
// large machine. Rounds: one Sort plus one report round.
func Arrange[T any](
	c *mpc.Cluster,
	data [][]T,
	sortKey func(T) SortKey,
	itemWords int,
) (*Arranged[T], error) {
	if !c.HasLarge() {
		return nil, fmt.Errorf("prims: Arrange: %w", mpc.ErrNeedsLarge)
	}
	defer c.Span("arrange").End()
	key := func(it T) int64 { return sortKey(it).A }
	k := c.K()
	sorted, err := Sort(c, data, itemWords, sortKey)
	if err != nil {
		return nil, err
	}
	// Every machine reports its runs.
	type runRec struct {
		Key   int64
		Count int
	}
	reports := make([][]runRec, k)
	c.Each(func(i int) {
		for j := 0; j < len(sorted[i]); {
			kk := key(sorted[i][j])
			start := j
			for j < len(sorted[i]) && key(sorted[i][j]) == kk {
				j++
			}
			reports[i] = append(reports[i], runRec{Key: kk, Count: j - start})
		}
	})
	// One round: every machine reports its runs. By contiguity the total is
	// at most (#distinct keys) + K - 1 records.
	outs := perMachineOuts(k)
	for i := range outs {
		if len(reports[i]) == 0 {
			outs[i] = nil
			continue
		}
		outs[i][0] = mpc.Msg{To: mpc.Large, Words: 2 * len(reports[i]), Data: reports[i]}
	}
	_, inLarge, err := c.Exchange(outs, nil)
	if err != nil {
		return nil, err
	}
	// Delivery is in machine order over globally sorted data, so a key is
	// first seen in ascending order, and a run continuing on the next machine
	// continues the last key: keys needs no sort.
	a := &Arranged[T]{Data: sorted, key: key, itemWords: itemWords}
	for _, m := range inLarge {
		recs, ok := m.Data.([]runRec)
		if !ok {
			return nil, fmt.Errorf("prims: unexpected run report %T", m.Data)
		}
		for _, r := range recs {
			if n := len(a.Keys); n == 0 || a.Keys[n-1] != r.Key {
				a.Keys, a.at = append(a.Keys, r.Key), append(a.at, len(a.parts))
			}
			a.parts = append(a.parts, RunPart{Machine: m.From, Count: r.Count})
		}
	}
	a.at = append(a.at, len(a.parts))
	return a, nil
}

// runOf returns the run decomposition of Keys[p].
func (a *Arranged[T]) runOf(p int) []RunPart { return a.parts[a.at[p]:a.at[p+1]] }

// Degree returns the total run length of Keys[p] (the out-degree in the
// directed edge arrangements), from the large machine's view.
func (a *Arranged[T]) Degree(p int) int {
	d := 0
	for _, part := range a.runOf(p) {
		d += part.Count
	}
	return d
}

// CollectBudget implements the collection pattern of §3 and §5: for the key
// at each position p of Keys, the large machine requests the first budget(p)
// items of the key's global run (they are the lightest, since runs are
// sorted) and returns them at position p, in global order. Two rounds:
// queries out, items back. The caller is responsible for Σ budgets fitting
// the large machine (the paper's O(n log n) bound).
func (a *Arranged[T]) CollectBudget(c *mpc.Cluster, budget func(p int) int) ([][]T, error) {
	k := c.K()
	type query struct {
		Key  int64
		Take int
	}
	queries := make([][]query, k)
	for p, kk := range a.Keys {
		want := budget(p)
		for _, part := range a.runOf(p) {
			if want <= 0 {
				break
			}
			take := part.Count
			if take > want {
				take = want
			}
			queries[part.Machine] = append(queries[part.Machine], query{Key: kk, Take: take})
			want -= take
		}
	}
	qmsgs := make([]mpc.Msg, 0, k)
	for i := 0; i < k; i++ {
		if len(queries[i]) == 0 {
			continue
		}
		qmsgs = append(qmsgs, mpc.Msg{To: i, Words: 2 * len(queries[i]), Data: queries[i]})
	}
	ins, _, err := c.Exchange(nil, qmsgs)
	if err != nil {
		return nil, err
	}
	// Machines answer with the first Take items of each queried run: queries
	// and runs both ascend by key, so one walk over the machine's items finds
	// them.
	type reply struct {
		Key   int64
		Items []T
	}
	outs := make([][]mpc.Msg, k)
	if err := c.ForSmall(func(i int) error {
		for _, m := range ins[i] {
			qs, ok := m.Data.([]query)
			if !ok {
				return fmt.Errorf("prims: unexpected query payload %T", m.Data)
			}
			var replies []reply
			words, data := 0, a.Data[i]
			for _, q := range qs {
				// The query is cut from this machine's report of the run:
				// the run is here, at least Take long.
				for a.key(data[0]) < q.Key {
					data = data[1:]
				}
				replies = append(replies, reply{Key: q.Key, Items: data[:q.Take]})
				words += 1 + q.Take*a.itemWords
			}
			if len(replies) > 0 {
				outs[i] = append(outs[i], mpc.Msg{To: mpc.Large, Words: words, Data: replies})
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	_, inLarge, err := c.Exchange(outs, nil)
	if err != nil {
		return nil, err
	}
	// Machine order is run order per key, and every machine's replies ascend
	// by key, each a key of Keys: one walk over Keys places them.
	out, p := make([][]T, len(a.Keys)), 0
	for _, m := range inLarge {
		replies, ok := m.Data.([]reply)
		if !ok {
			return nil, fmt.Errorf("prims: unexpected collect payload %T", m.Data)
		}
		for _, r := range replies {
			for a.Keys[p] < r.Key {
				p++
			}
			out[p] = append(out[p], r.Items...)
		}
	}
	return out, nil
}
