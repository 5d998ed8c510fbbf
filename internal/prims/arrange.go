package prims

import (
	"fmt"

	"hetmpc/internal/mpc"
)

// Arranged is the product of Claim 4: items sorted so each key's run is
// contiguous across machines, with the large machine knowing every run's
// (machine, count) decomposition — i.e. M_first(v), the out-degree of v, and
// exactly how many of v's items each machine stores (the k(v,M) table used
// by the MST collection step). The large machine's view is indexed by
// position in Keys.
type Arranged[T any] struct {
	Data [][]T   // per-machine sorted items
	Keys []int64 // distinct keys in global order (large machine's view)

	runs     []runRec // in machine order; machine i reported runs[from[i]:from[i+1]]
	at, from []int    // the run of Keys[p] is runs[at[p]:at[p+1]]
	key      func(T) int64
}

// runRec is one machine's report of one run: the key and how many of its
// items the machine holds. Machine rides uncharged — the report's message
// names its sender. A record is a count word and its key, which costs
// KeyRunWords with the message's other keys.
type runRec struct {
	Key            int64
	Machine, Count int32
}

func (r runRec) key() int64 { return r.Key }

// runRecWords is what a message of runs or queries costs: a count word each
// and their keys.
func runRecWords(rs []runRec) int { return len(rs) + KeyRunWords(rs, runRec.key) }

// Arrange sorts the items by sortKey — whose leading component .A is the
// grouping key — and builds the run index on the large machine. Requires a
// large machine. Rounds: one grouped Sort, which cuts its buckets between
// groups (one round more when a group might not fit its bucket), plus one
// gather of the runs.
func Arrange[T any](c *mpc.Cluster, data [][]T, sortKey func(T) SortKey, itemWords int) (*Arranged[T], error) {
	if !c.HasLarge() {
		return nil, fmt.Errorf("prims: Arrange: %w", mpc.ErrNeedsLarge)
	}
	defer c.Span("arrange").End()
	key := func(it T) int64 { return sortKey(it).A }
	sorted, _, err := sortSplit(c, data, itemWords, sortKey, split{grouped: true})
	if err != nil {
		return nil, err
	}
	// Every machine reports its runs, carved from one array: count, then
	// fill. By contiguity the total is at most (#distinct keys) + K - 1.
	k, from := len(sorted), make([]int, len(sorted)+1)
	c.Each(func(i int) {
		for j, last := 0, int64(0); j < len(sorted[i]); j++ {
			if kk := key(sorted[i][j]); j == 0 || kk != last {
				from[i+1], last = from[i+1]+1, kk
			}
		}
	})
	for i := 0; i < k; i++ {
		from[i+1] += from[i]
	}
	flat, reports := make([]runRec, from[k]), make([][]runRec, k)
	c.Each(func(i int) {
		rs := flat[from[i]:from[i]:from[i+1]]
		for _, it := range sorted[i] {
			if kk := key(it); len(rs) == 0 || rs[len(rs)-1].Key != kk {
				rs = append(rs, runRec{Key: kk, Machine: int32(i)})
			}
			rs[len(rs)-1].Count++
		}
		reports[i] = rs
	})
	runs, err := Gather(c, reports, runRecWords)
	if err != nil {
		return nil, err
	}
	// Delivery is in machine order over globally sorted data, so a key is
	// first seen in ascending order, and a run continuing on the next machine
	// continues the last key: keys needs no sort.
	a := &Arranged[T]{Data: sorted, Keys: make([]int64, 0, len(runs)), runs: runs,
		at: make([]int, 0, len(runs)+1), from: from, key: key}
	for j, r := range runs {
		if j == 0 || runs[j-1].Key != r.Key {
			a.Keys, a.at = append(a.Keys, r.Key), append(a.at, j)
		}
	}
	a.at = append(a.at, len(runs))
	return a, nil
}

// runOf returns the run decomposition of Keys[p].
func (a *Arranged[T]) runOf(p int) []runRec { return a.runs[a.at[p]:a.at[p+1]] }

// Degree returns the total run length of Keys[p] (the out-degree in the
// directed edge arrangements), from the large machine's view.
func (a *Arranged[T]) Degree(p int) (d int) {
	for _, r := range a.runOf(p) {
		d += int(r.Count)
	}
	return d
}

// CollectBudget implements the collection pattern of §3 and §5: for the key
// at each position p of a.Keys, the large machine requests the first
// budget(p) items of the key's global run (they are the lightest, since runs
// are sorted) and receives them at position p, in global order. An item
// ships as ship(item), charged shipWords: the fields the large machine
// reads and cannot rebuild. Two rounds: a scatter of queries, a gather of
// items. A machine's reply is its queried items alone: the large machine
// sent the queries, so it knows each one's key and count, and places the
// items by the queries, not by anything they carry. The caller is
// responsible for Σ budgets fitting the large machine (the paper's
// O(n log n) bound).
func CollectBudget[T, S any](c *mpc.Cluster, a *Arranged[T], budget func(p int) int, ship func(T) S, shipWords int) ([][]S, error) {
	// A machine is asked at most once a run it reported, so its queries are
	// carved from one array where its reports sit, and the items it ships
	// from one array per call, at the offset of its queries' counts.
	k, from, total := c.K(), a.from, 0
	qbuf, queries := make([]runRec, len(a.runs)), make([][]runRec, k)
	for i := range queries {
		queries[i] = qbuf[from[i]:from[i]:from[i+1]]
	}
	asked := make([]int, k+1) // machine i ships items [asked[i], asked[i+1])
	for p := range a.Keys {
		want := budget(p)
		for _, r := range a.runOf(p) {
			if want <= 0 {
				break
			}
			take := min(int(r.Count), want)
			r.Count, want, total = int32(take), want-take, total+take
			queries[r.Machine] = append(queries[r.Machine], r)
			asked[r.Machine+1] += take
		}
	}
	for i := range k {
		asked[i+1] += asked[i]
	}
	ins, err := Scatter(c, queries, runRecWords)
	if err != nil {
		return nil, err
	}
	// Machines answer with the first Count items of each queried run: queries
	// and runs both ascend by key, so one walk over the machine's items finds
	// them.
	sbuf, replies := make([]S, total), make([][]S, k)
	c.Each(func(i int) {
		data, shipped := a.Data[i], sbuf[asked[i]:asked[i]:asked[i+1]]
		for _, q := range ins[i] {
			// The query is cut from this machine's report of the run: the
			// run is here, at least Count long.
			for a.key(data[0]) < q.Key {
				data = data[1:]
			}
			for _, it := range data[:q.Count] {
				shipped = append(shipped, ship(it))
			}
		}
		replies[i] = shipped
	})
	got, err := Gather(c, replies, func(items []S) int { return len(items) * shipWords })
	if err != nil {
		return nil, err
	}
	// The items arrive in machine order, each machine's in the order of its
	// queries; walking the queries the same way places them. Machine order is
	// run order per key and every machine's queries ascend by key, so a key's
	// items are one stretch of got.
	out, p, at := make([][]S, len(a.Keys)), 0, 0
	for _, qs := range queries {
		for _, q := range qs {
			for a.Keys[p] < q.Key {
				p++
			}
			end := at + int(q.Count)
			out[p] = got[at-len(out[p]) : end : end] // the key's earlier items end at at
			at = end
		}
	}
	return out, nil
}
