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
// by the MST collection step).
type Arranged[T any] struct {
	Data [][]T               // per-machine sorted items
	Keys []int64             // distinct keys in global order (large machine's view)
	Runs map[int64][]RunPart // large machine's view: ordered run decomposition

	key       func(T) int64
	itemWords int
	local     []map[int64]localRun // per machine: key → (start, count)
}

type localRun struct {
	Start, Count int
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
	// Local run index.
	local := make([]map[int64]localRun, k)
	type runRec struct {
		Key   int64
		Count int
	}
	reports := make([][]runRec, k)
	c.Each(func(i int) {
		local[i] = make(map[int64]localRun)
		for j := 0; j < len(sorted[i]); {
			kk := key(sorted[i][j])
			start := j
			for j < len(sorted[i]) && key(sorted[i][j]) == kk {
				j++
			}
			local[i][kk] = localRun{Start: start, Count: j - start}
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
	// first seen in ascending order: keys needs no sort.
	runs := make(map[int64][]RunPart)
	var keys []int64
	for _, m := range inLarge {
		recs, ok := m.Data.([]runRec)
		if !ok {
			return nil, fmt.Errorf("prims: unexpected run report %T", m.Data)
		}
		for _, r := range recs {
			if len(runs[r.Key]) == 0 {
				keys = append(keys, r.Key)
			}
			runs[r.Key] = append(runs[r.Key], RunPart{Machine: m.From, Count: r.Count})
		}
	}
	return &Arranged[T]{
		Data:      sorted,
		Keys:      keys,
		Runs:      runs,
		key:       key,
		itemWords: itemWords,
		local:     local,
	}, nil
}

// Degree returns the total run length of key (the out-degree in the directed
// edge arrangements), from the large machine's view.
func (a *Arranged[T]) Degree(key int64) int {
	d := 0
	for _, p := range a.Runs[key] {
		d += p.Count
	}
	return d
}

// CollectBudget implements the collection pattern of §3 and §5: for each
// key, the large machine requests the first budget(key) items of the key's
// global run (they are the lightest, since runs are sorted) and returns them
// per key, in global order. Two rounds: queries out, items back. The caller
// is responsible for Σ budgets fitting the large machine (the paper's
// O(n log n) bound).
func (a *Arranged[T]) CollectBudget(c *mpc.Cluster, budget func(key int64) int) (map[int64][]T, error) {
	k := c.K()
	type query struct {
		Key  int64
		Take int
	}
	queries := make([][]query, k)
	for _, kk := range a.Keys {
		want := budget(kk)
		for _, part := range a.Runs[kk] {
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
	// Machines answer with the first Take items of each queried run.
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
			words := 0
			for _, q := range qs {
				run, ok := a.local[i][q.Key]
				if !ok {
					continue
				}
				take := q.Take
				if take > run.Count {
					take = run.Count
				}
				items := a.Data[i][run.Start : run.Start+take]
				replies = append(replies, reply{Key: q.Key, Items: items})
				words += 1 + take*a.itemWords
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
	out := make(map[int64][]T, len(a.Keys))
	for _, m := range inLarge { // machine order == run order per key
		replies, ok := m.Data.([]reply)
		if !ok {
			return nil, fmt.Errorf("prims: unexpected collect payload %T", m.Data)
		}
		for _, r := range replies {
			out[r.Key] = append(out[r.Key], r.Items...)
		}
	}
	return out, nil
}
