package prims

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"hetmpc/internal/mpc"
	"hetmpc/internal/trace"
)

func identKey(k SortKey) SortKey { return k }

// sortRounds runs one Sort of single-word items on a traced cluster built
// from cfg and returns the cluster and the trace records of its rounds.
func sortRounds(t *testing.T, cfg mpc.Config, data [][]SortKey) (*mpc.Cluster, []trace.Round) {
	t.Helper()
	tr := trace.New()
	cfg.Trace = tr
	c, err := mpc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := make([][]SortKey, len(data))
	for i := range data {
		in[i] = slices.Clone(data[i])
	}
	sorted, err := Sort(c, in, 1, identKey)
	if err != nil {
		t.Fatal(err)
	}
	if !IsGloballySorted(sorted, identKey) {
		t.Fatal("Sort output is not globally sorted")
	}
	return c, tr.Rounds()
}

// TestSortChargesThreeRoundsWhenRepliesFit pins step 3's cost on a cluster
// without a large machine. Where the replies fit half the coordinator's
// capacity a Sort is sample, reply, route — three rounds — and the reply
// round carries, to every machine but the coordinator, one header word plus
// two words per cut (a machine whose sample is its whole run) or the list
// (a machine that holds more than q items). Where they do not fit, step 3
// is exactly BroadcastValue of the list: its tree depth, its words.
func TestSortChargesThreeRoundsWhenRepliesFit(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 311))
	input := func(k int, size func(i int) int) [][]SortKey {
		data := make([][]SortKey, k)
		for i := range data {
			for j := 0; j < size(i); j++ {
				data[i] = append(data[i], SortKey{A: rng.Int64N(1 << 20), B: int64(i), C: int64(j)})
			}
		}
		return data
	}
	// wantReplies is the reply round's words for this input, from the
	// splitters a twin cluster picks over the same locally sorted runs.
	wantReplies := func(cfg mpc.Config, data [][]SortKey, q int) (words int64) {
		twin, err := mpc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs := make([][]SortKey, len(data))
		for i := range data {
			runs[i] = slices.Clone(data[i])
			slices.SortFunc(runs[i], SortKey.Compare)
		}
		sp, _, err := sortSplitters(twin, runs, identKey)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(runs); i++ { // machine 0 is the coordinator
			if len(runs[i]) > q {
				words += int64(sortKeyWords*len(sp) + 1)
			} else {
				words += int64(cutWords*len(runCuts(nil, runs[i], sp, twin.K(), identKey)) + 1)
			}
		}
		return words
	}

	// Table 1's baseline shape: K = 182, q = 64.
	fit := mpc.Config{N: 512, M: 4096, Seed: 7, NoLarge: true}
	const q = 64
	for _, tc := range []struct {
		name string
		size func(i int) int
	}{
		{"every sample whole", func(i int) int { return i % (q + 1) }},
		{"one machine over q", func(i int) int {
			if i == 100 {
				return 3 * q
			}
			return i % (q + 1)
		}},
	} {
		k := fit.DeriveK()
		data := input(k, tc.size)
		c, rounds := sortRounds(t, fit, data)
		if k != 182 || coordCap(c)/(2*k*(sortKeyWords+1)) < q {
			t.Fatalf("%s: K=%d coordinator cap %d: not Table 1's baseline shape", tc.name, k, coordCap(c))
		}
		if len(rounds) != 3 || rounds[1].Phase != "sort/broadcast" {
			t.Fatalf("%s: Sort charged %d rounds, want sample, reply, route: %+v", tc.name, len(rounds), rounds)
		}
		if want := wantReplies(fit, data, q); rounds[1].Words != want {
			t.Errorf("%s: the reply round carries %d words, want %d (a header and two words a cut, or the list)", tc.name, rounds[1].Words, want)
		}
	}

	// TestDeepTrees' shape: K = 64 machines of 819 words, q = 1. Every
	// machine holds more than it samples, and 63 lists do not fit.
	deep := mpc.Config{N: 256, M: 2048, K: 64, CSmall: 0.1, Seed: 42, NoLarge: true}
	data := input(deep.K, func(int) int { return 3 })
	c, rounds := sortRounds(t, deep, data)
	listWords := sortKeyWords*(deep.K-1) + 1
	depth := treeDepth(deep.K, branching(c, listWords))
	if (deep.K-1)*listWords <= coordCap(c)/2 || depth < 2 {
		t.Fatalf("deep: %d lists of %d words against coordinator cap %d, tree depth %d: the replies fit", deep.K-1, listWords, coordCap(c), depth)
	}
	if len(rounds) != 2+depth {
		t.Fatalf("deep: Sort charged %d rounds, want sample + %d tree levels + route", len(rounds), depth)
	}
	var tree int64
	for _, r := range rounds[1 : 1+depth] {
		if r.Phase != "sort/broadcast" {
			t.Fatalf("deep: round %d is charged to %q, want sort/broadcast", r.Round, r.Phase)
		}
		tree += r.Words
	}
	if want := int64((deep.K - 1) * listWords); tree != want {
		t.Errorf("deep: the tree carries %d words, want one list to each of %d machines = %d", tree, deep.K-1, want)
	}
}

// TestSortReplyOverCapFailsTyped: the reply round is an ordinary round. A
// machine too small for its reply — here the list, to a machine that holds
// more than q items and can send its sample but not receive K-1 splitters —
// fails the Sort with mpc.ErrCapacity naming the machine, not silently.
func TestSortReplyOverCapFailsTyped(t *testing.T) {
	const k, hot = 128, 77
	prof := mpc.UniformProfile(k)
	prof.CapScale[hot] = 0.004
	c, err := mpc.New(mpc.Config{N: 256, M: 2048, K: k, Seed: 42, Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	sampleWords, listWords := 64*sortKeyWords+1, sortKeyWords*(k-1)+1
	if cap := c.SmallCapOf(hot); cap < sampleWords || cap >= listWords {
		t.Fatalf("machine %d has cap %d, want room for its sample (%d) and not for the list (%d)", hot, cap, sampleWords, listWords)
	}
	data := make([][]SortKey, k)
	for i := range data {
		n := 10
		if i == hot {
			n = 100 // over q = 64: the machine is sent the list
		}
		for j := 0; j < n; j++ {
			data[i] = append(data[i], SortKey{A: int64((i*131 + j*17) % 1000)})
		}
	}
	_, err = Sort(c, data, 1, identKey)
	if !errors.Is(err, mpc.ErrCapacity) || !strings.Contains(err.Error(), fmt.Sprintf("machine %d received %d", hot, listWords)) {
		t.Fatalf("Sort with an over-cap reply: err %v, want mpc.ErrCapacity naming machine %d", err, hot)
	}
	// The same machine with a whole sample is sent its cuts, which fit.
	data[hot] = data[hot][:10]
	if c, err = mpc.New(mpc.Config{N: 256, M: 2048, K: k, Seed: 42, Profile: prof}); err != nil {
		t.Fatal(err)
	}
	if _, err := Sort(c, data, 1, identKey); err != nil {
		t.Fatalf("Sort with every reply within cap: %v", err)
	}
}
