package prims

import (
	"errors"
	"slices"
	"testing"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/xrand"
)

func edgeKey(e graph.Edge) SortKey {
	return SortKey{A: e.W, B: int64(e.U), C: int64(e.V)}
}

// TestDistributeEdgesUniformIsRoundRobin: with uniform caps the weighted
// allotment must stay the historical round-robin (placement feeds every
// downstream golden).
func TestDistributeEdgesUniformIsRoundRobin(t *testing.T) {
	g := graph.GNMWeighted(128, 1024, 3)
	cfg := mpc.Config{N: g.N, M: g.M(), Seed: 1}
	cNil, err := mpc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Profile = mpc.UniformProfile(cfg.DeriveK())
	cUni, err := mpc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := DistributeEdges(cNil, g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DistributeEdges(cUni, g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("machine %d: %d vs %d edges", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("machine %d item %d differs", i, j)
			}
		}
	}
	for j, e := range g.Edges {
		if a[j%cNil.K()][j/cNil.K()] != e {
			t.Fatalf("edge %d not at round-robin position", j)
		}
	}
}

// TestDistributeEdgesProportional: under capacity skew the held volume
// tracks CapShare within rounding.
func TestDistributeEdgesProportional(t *testing.T) {
	g := graph.GNMWeighted(128, 1024, 3)
	cfg := mpc.Config{N: g.N, M: g.M(), Seed: 1}
	k := cfg.DeriveK()
	cfg.Profile = mpc.ZipfProfile(k, 1, 0.05)
	c, err := mpc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := DistributeEdges(c, g)
	if err != nil {
		t.Fatal(err)
	}
	if got := CountItems(data); got != g.M() {
		t.Fatalf("%d items distributed, want %d", got, g.M())
	}
	var totalShare float64
	for i := 0; i < k; i++ {
		totalShare += c.CapShare(i)
	}
	for i := 0; i < k; i++ {
		expect := float64(g.M()) * c.CapShare(i) / totalShare
		if d := float64(len(data[i])) - expect; d > 1.5 || d < -1.5 {
			t.Fatalf("machine %d holds %d edges, want ~%.1f (share %.3f)", i, len(data[i]), expect, c.CapShare(i))
		}
	}
}

// TestSortUnderCapacitySkew: the sample sort stays correct and inside every
// machine's own cap when capacities are Zipf-skewed.
func TestSortUnderCapacitySkew(t *testing.T) {
	g := graph.GNMWeighted(256, 4096, 9)
	cfg := mpc.Config{N: g.N, M: g.M(), Seed: 2}
	cfg.Profile = mpc.ZipfProfile(cfg.DeriveK(), 1.2, 0.05)
	c, err := mpc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := DistributeEdges(c, g)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := Sort(c, data, EdgeWords, edgeKey)
	if err != nil {
		t.Fatal(err)
	}
	if !IsGloballySorted(sorted, edgeKey) {
		t.Fatal("not globally sorted under capacity skew")
	}
	if got := CountItems(sorted); got != g.M() {
		t.Fatalf("%d items after sort, want %d", got, g.M())
	}
	for i := range sorted {
		if words := len(sorted[i]) * EdgeWords; words > c.SmallCapOf(i) {
			t.Fatalf("machine %d holds %d words over its cap %d", i, words, c.SmallCapOf(i))
		}
	}
}

// TestWeightedAssignMatchesScan pins weightedAssign's deal against an
// O(n·k) scan of the same rule: largest-remainder counts, then every item in
// turn to the machine with the least next position, the lowest index on
// ties, a machine's positions starting at half its period and each one a
// period on from the last; the counts it returns, which DistributeEdges
// carves its shards by, must be the owners' tallies. Random shares, zeros
// among them, over K = 1…64; and with equal shares at K = 7 and 64 every
// n ≤ 3,000 deals item j to machine j mod K, the round-robin
// DistributeEdges' uniform path takes without the deal.
func TestWeightedAssignMatchesScan(t *testing.T) {
	tallied := func(owner, counts []int) bool {
		tally := make([]int, len(counts))
		for _, o := range owner {
			tally[o]++
		}
		return slices.Equal(tally, counts)
	}
	rng := xrand.New(11)
	for k := 1; k <= 64; k++ {
		for trial := 0; trial < 4; trial++ {
			shares := make([]float64, k)
			for i := range shares {
				if rng.IntN(4) > 0 {
					shares[i] = rng.Float64() * 8
				}
			}
			shares[rng.IntN(k)] = 1 + rng.Float64() // some machine can hold items
			n := rng.IntN(40 * k)
			got, counts, err := weightedAssign(n, shares)
			if err != nil {
				t.Fatal(err)
			}
			if want := scanAssign(n, shares); !slices.Equal(got, want) {
				t.Fatalf("K=%d n=%d shares %v: weightedAssign deals %v, the scan %v", k, n, shares, got, want)
			}
			if !tallied(got, counts) {
				t.Fatalf("K=%d n=%d shares %v: counts %v are not the owners' tallies", k, n, shares, counts)
			}
		}
	}
	for _, k := range []int{7, 64} {
		shares := make([]float64, k)
		for i := range shares {
			shares[i] = 1
		}
		for n := 0; n <= 3000; n++ {
			got, counts, err := weightedAssign(n, shares)
			if err != nil {
				t.Fatal(err)
			}
			if !tallied(got, counts) {
				t.Fatalf("K=%d n=%d equal shares: counts %v are not the owners' tallies", k, n, counts)
			}
			for j, o := range got {
				if o != j%k {
					t.Fatalf("K=%d n=%d equal shares: item %d dealt to machine %d, want %d", k, n, j, o, j%k)
				}
			}
		}
	}
}

// scanAssign is weightedAssign's reference, one O(k) scan an item.
func scanAssign(n int, shares []float64) []int {
	k := len(shares)
	total := 0.0
	for _, s := range shares {
		total += s
	}
	left, frac, extra := make([]int, k), make([]float64, k), n
	for i, s := range shares {
		q := float64(n) * s / total
		left[i] = int(q)
		frac[i], extra = q-float64(left[i]), extra-left[i]
	}
	for ; extra > 0; extra-- { // the largest remainders, lowest index on ties
		most := 0
		for i := range frac {
			if frac[i] > frac[most] {
				most = i
			}
		}
		left[most]++
		frac[most] = -1
	}
	pos, period := make([]float64, k), make([]float64, k)
	for i := range left {
		if left[i] > 0 {
			period[i] = float64(n) / float64(left[i])
			pos[i] = period[i] / 2
		}
	}
	owner := make([]int, n)
	for j := range owner {
		best := -1
		for i := range pos {
			if left[i] > 0 && (best < 0 || pos[i] < pos[best]) {
				best = i
			}
		}
		owner[j] = best
		left[best]--
		pos[best] += period[best]
	}
	return owner
}

// FuzzWeightedAssign checks the windowed deal against scanAssign and its
// counts against the owners' tallies. Each byte is one machine's share (a
// seventh of its value, so shares are not dyadic and zeros are common); a
// profile whose shares are all zero must fail with ErrZeroCapacity. The
// seeds are a machine dealt a single item (its period is n, the widest
// ring), fewer items than machines, zero shares beside positive ones, and
// equal shares (exactly round-robin).
func FuzzWeightedAssign(f *testing.F) {
	f.Add([]byte{255, 1}, uint16(256))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7}, uint16(4))
	f.Add([]byte{0, 5, 0, 0, 9, 0}, uint16(100))
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3}, uint16(1000))
	f.Add([]byte{0, 0}, uint16(10))
	f.Fuzz(func(t *testing.T, shareBytes []byte, n16 uint16) {
		if len(shareBytes) > 256 {
			shareBytes = shareBytes[:256]
		}
		n := int(n16) % 4096
		shares, zero := make([]float64, len(shareBytes)), true
		for i, b := range shareBytes {
			shares[i], zero = float64(b)/7, zero && b == 0
		}
		owner, counts, err := weightedAssign(n, shares)
		if zero {
			if !errors.Is(err, ErrZeroCapacity) {
				t.Fatalf("shares %v: err = %v, want ErrZeroCapacity", shares, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := scanAssign(n, shares); !slices.Equal(owner, want) {
			t.Fatalf("n=%d shares %v: weightedAssign deals %v, the scan %v", n, shares, owner, want)
		}
		tally := make([]int, len(shares))
		for _, o := range owner {
			tally[o]++
		}
		if !slices.Equal(tally, counts) {
			t.Fatalf("n=%d shares %v: counts %v are not the owners' tallies %v", n, shares, counts, tally)
		}
	})
}
