package prims

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hetmpc/internal/fault"
	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/trace"
)

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

// TestSortChargesThreeRoundsWhenRepliesFit pins steps 2 and 3's cost. Where
// every leader's replies fit half its capacity, a Sort is sample, reply,
// route — three rounds — with one more, the summaries, when r > 1 leaders
// agree on the splitters (sortLeaders). The sample round carries every
// machine's encoded sample, and the reply round carries, to every machine
// but a leader, the encoded cuts of its run (a machine that sends its whole
// run, wholeRun) or the encoded list (any other), each with its header
// word. Where the coordinator's replies do not fit, step 3 is exactly
// BroadcastValue of the list: its tree depth, its words. The expected words
// are the lengths of the encodings in sortwords_test.go, not the charges
// under test.
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
	// wantSamples is the sample round's words for this input: every
	// machine's sampleSize evenly spaced keys (all of them when it sends its
	// whole run), encoded under its count.
	wantSamples := func(c *mpc.Cluster, data [][]SortKey) (words int64) {
		ld := sortLeaders(c, split{})
		for i, run := range data {
			run = slices.Clone(run)
			slices.SortFunc(run, SortKey.Compare)
			sample := make([]SortKey, ld.sampleSize(c, i, len(run)))
			for j := range sample {
				sample[j] = run[j*len(run)/len(sample)]
			}
			words += int64(len(encodeKeys(int64(len(run)), sample)))
		}
		return words
	}
	// cutWords is the words the cuts of machine i's run encode to.
	cutWords := func(sp []SortKey, runs [][]SortKey, i int) int {
		return len(encodeRunCuts(runCuts(nil, runs[i], sp, len(runs), identKey), len(runs[i])))
	}
	// wantReplies is the reply round's words for this input: every machine
	// but a leader is sent its encoded cuts, when it sends its whole run, or
	// the list.
	wantReplies := func(c *mpc.Cluster, cfg mpc.Config, data [][]SortKey) (words int64) {
		sp, runs := sortedSplitters(t, cfg, data)
		list := len(encodeKeys(int64(len(sp)), sp))
		ld := sortLeaders(c, split{})
		for i := range runs {
			switch whole, _ := ld.wholeRun(c, i, len(runs[i])); {
			case i == ld.ids[i/ld.g]:
			case whole:
				words += int64(cutWords(sp, runs, i))
			default:
				words += int64(list)
			}
		}
		return words
	}
	// checkThreeRounds runs one Sort of data on cfg and checks it is sample,
	// summary when there are r leaders, reply, route, with the sample and
	// reply words above, and that the machines named are sent the list and
	// the cuts of their runs: the rule's verdict read off the reply round,
	// not off wholeRun. Trace slot 1+i is machine i.
	checkThreeRounds := func(name string, cfg mpc.Config, data [][]SortKey, r int, listTo, cutsTo []int) {
		t.Helper()
		c, rounds := sortRounds(t, cfg, data)
		if got := sortLeaders(c, split{}).r(); got != r {
			t.Fatalf("%s: %d leaders, want %d", name, got, r)
		}
		want := []string{"sort", "sort/summary", "sort/broadcast", "sort"}
		if r == 1 {
			want = slices.Delete(want, 1, 2)
		}
		phases := make([]string, len(rounds))
		for j, rd := range rounds {
			phases[j] = rd.Phase
		}
		if !slices.Equal(phases, want) {
			t.Fatalf("%s: Sort charged rounds %q, want %q", name, phases, want)
		}
		reply := rounds[len(rounds)-2]
		if want := wantSamples(c, data); rounds[0].Words != want {
			t.Errorf("%s: the sample round carries %d words, want %d (the encoded samples)", name, rounds[0].Words, want)
		}
		if want := wantReplies(c, cfg, data); reply.Words != want {
			t.Errorf("%s: the reply round carries %d words, want %d (the encoded cuts or list)", name, reply.Words, want)
		}
		sp, runs := sortedSplitters(t, cfg, data)
		list := len(encodeKeys(int64(len(sp)), sp))
		for _, i := range listTo {
			if got := reply.RecvWords[1+i]; got != list {
				t.Errorf("%s: machine %d (%d items) is sent %d words, want the list's %d", name, i, len(runs[i]), got, list)
			}
		}
		for _, i := range cutsTo {
			if got, want := reply.RecvWords[1+i], cutWords(sp, runs, i); got != want || want >= list {
				t.Errorf("%s: machine %d (%d items) is sent %d words, want its cuts' %d, shorter than the list's %d", name, i, len(runs[i]), got, want, list)
			}
		}
	}

	// Table 1's baseline shape: K = 182 in 14 groups of 13, q = 64, and the
	// leaders' capacity term is far past the bound 4n <= 3(q+K-1).
	fit := mpc.Config{N: 512, M: 4096, Seed: 7, NoLarge: true}
	const q = 64
	k := fit.DeriveK()
	twin, err := mpc.New(fit)
	if err != nil {
		t.Fatal(err)
	}
	ld := sortLeaders(twin, split{})
	most := capTerm(leaderCap(twin, ld.ids[0]), ld.g)
	bound := sortKeyWords * (q + k - 1) / (sortKeyWords + 1)
	if k != 182 || ld.g != 13 || most <= bound {
		t.Fatalf("K=%d g=%d capacity term %d: not Table 1's baseline shape", k, ld.g, most)
	}
	for _, tc := range []struct {
		name   string
		size   func(i int) int
		listTo []int
	}{
		{"every sample whole", func(i int) int { return i % (q + 1) }, nil},
		{"one machine over q", func(i int) int {
			if i == 100 {
				return 3 * q
			}
			return i % (q + 1)
		}, []int{100}},
		{"one machine past the bound", func(i int) int {
			if i == 100 {
				return bound + 1
			}
			return i % (q + 1)
		}, []int{100}},
	} {
		checkThreeRounds(tc.name, fit, input(k, tc.size), 14, tc.listTo, []int{1, 64})
	}

	// Table 1's heterogeneous shape: the large machine costs a small one's
	// per word, so 14 small leaders agree on the splitters. The machine at
	// the bound, past q, is sent its cuts; the one past it the list.
	het := mpc.Config{N: 512, M: 4096, Seed: 7}
	checkThreeRounds("small leaders", het, input(k, func(i int) int {
		switch i {
		case 100:
			return bound
		case 101:
			return bound + 1
		}
		return i % (q + 1)
	}), 14, []int{101}, []int{64, 100})

	// A beefy large machine, 64× a small one's speed and link, is the one
	// leader: it answers every machine itself.
	beefy := het
	beefy.Profile = mpc.UniformProfile(k)
	beefy.Profile.LargeCost = 1.0 / 32
	checkThreeRounds("beefy coordinator", beefy, input(k, func(i int) int {
		if i == 101 {
			return bound + 1
		}
		return i % (q + 1)
	}), 1, []int{101}, []int{64, 100})

	// TestDeepTrees' shape: K = 64 machines of 819 words, q = 1. No leader
	// has room for its group's replies, so the coordinator leads; every
	// machine holds more than it samples, and 63 lists do not fit.
	deep := mpc.Config{N: 256, M: 2048, K: 64, CSmall: 0.1, Seed: 42, NoLarge: true}
	data := input(deep.K, func(int) int { return 3 })
	c, rounds := sortRounds(t, deep, data)
	if r := sortLeaders(c, split{}).r(); r != 1 {
		t.Fatalf("deep: %d leaders, want the coordinator alone", r)
	}
	sp, _ := sortedSplitters(t, deep, data)
	listWords := len(encodeKeys(int64(len(sp)), sp))
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

// sortedSplitters is the list a twin cluster built from cfg picks over
// data's locally sorted runs, which it returns too.
func sortedSplitters(t *testing.T, cfg mpc.Config, data [][]SortKey) ([]SortKey, [][]SortKey) {
	t.Helper()
	twin, err := mpc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runs := make([][]SortKey, len(data))
	for i := range data {
		runs[i] = slices.Clone(data[i])
		slices.SortFunc(runs[i], SortKey.Compare)
	}
	sp, _, _, err := sortSplitters(twin, sortLeaders(twin, split{}), runs, identKey, split{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sp, runs
}

// TestSortReplyOverCapFailsTyped: the reply round is an ordinary round. A
// machine too small for its reply — here the list, to a machine whose run is
// too long to send whole and that can send its sample but not receive K-1
// splitters — fails the Sort with mpc.ErrCapacity naming the machine, not
// silently. The keys vary in all three components, so the list is charged
// its full sortKeyWords a splitter; a sample costs at most that too.
func TestSortReplyOverCapFailsTyped(t *testing.T) {
	const k, hot, hotItems = 128, 77, 200
	prof := mpc.UniformProfile(k)
	prof.CapScale[hot] = 0.004
	c, err := mpc.New(mpc.Config{N: 256, M: 2048, K: k, Seed: 42, Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	whole, q := sortLeaders(c, split{}).wholeRun(c, hot, hotItems)
	if whole {
		t.Fatalf("a run of %d items is sent whole: the machine would not be sent the list", hotItems)
	}
	sampleWords, listWords := q*sortKeyWords+1, sortKeyWords*(k-1)+1
	if cap := c.SmallCapOf(hot); cap < sampleWords || cap >= listWords {
		t.Fatalf("machine %d has cap %d, want room for its sample (%d) and not for the list (%d)", hot, cap, sampleWords, listWords)
	}
	data := make([][]SortKey, k)
	for i := range data {
		n := 10
		if i == hot {
			n = hotItems // past the whole-run bound: the machine is sent the list
		}
		for j := 0; j < n; j++ {
			data[i] = append(data[i], SortKey{A: int64((i*131 + j*17) % 1000), B: int64(i), C: int64(j)})
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

// TestSortLeaderRepliesOverCapTakeTheTree: with r > 1 leaders, a leader
// whose replies do not fit half its capacity hands the list to its group's
// first machine, which takes it down the group's tree (treeDown) under
// sort/broadcast, while every other leader replies directly in the same
// round. The leaders are built by hand, one of them a machine at a
// hundredth of the default cap, and every machine is sent the 3-column list
// of K-1 splitters: every machine ends holding the list, the small leader's
// group is sent it in the tree's rounds only, and no round puts more on a
// machine than its capacity.
func TestSortLeaderRepliesOverCapTakeTheTree(t *testing.T) {
	const k, g, small = 64, 8, 41
	const lo, hi = small / g * g, small/g*g + g // the small leader's group
	prof := mpc.UniformProfile(k)
	prof.CapScale[small] = 0.01
	tr := trace.New()
	c, err := mpc.New(mpc.Config{N: 1024, M: 8192, K: k, Seed: 7, Profile: prof, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	ld := leaders{g: g, ids: []int{0, 9, 16, 24, 32, small, 48, 56}}
	sp := make([]SortKey, k-1)
	for j := range sp {
		sp[j] = SortKey{A: int64(j), B: int64(-j), C: int64(j % 7)}
	}
	samples := make([]sample, k)
	for i := range samples {
		samples[i] = sample{Keys: []SortKey{{A: int64(i)}}, Count: 100} // not whole: the machine is sent the list
	}
	list := keyWords(sp) + 1
	if replies := (g - 1) * list; 2*replies > leaderCap(c, 0) || 2*replies <= leaderCap(c, small) {
		t.Fatalf("%d words of replies against caps %d and %d: want them to fit a default leader, not machine %d", replies, leaderCap(c, 0), leaderCap(c, small), small)
	}
	phase := c.Span("sort")
	got, err := sortReplies(c, ld, sp, samples, nil, make([]int, k+1), nil)
	phase.End()
	if err != nil {
		t.Fatalf("replies past a leader's half cap: %v, want them sent down the tree", err)
	}
	for i, r := range got {
		if r.Cuts != nil || !slices.Equal(r.List, sp) {
			t.Fatalf("machine %d holds %d cuts and %d splitters, want the list's %d", i, len(r.Cuts), len(r.List), len(sp))
		}
	}
	depth := treeDepth(g, branching(c, list))
	rounds := tr.Rounds()
	if len(rounds) != 1+depth || depth < 1 {
		t.Fatalf("%d rounds, want the replies' and %d tree levels", len(rounds), depth)
	}
	at := func(words []int, i int) int { // a round that moves no word records no slots
		if 1+i < len(words) {
			return words[1+i]
		}
		return 0
	}
	tree := 0
	for x, rd := range rounds {
		if rd.Phase != "sort/broadcast" {
			t.Fatalf("round %d is charged to %q, want sort/broadcast", x, rd.Phase)
		}
		for i := 0; i < k; i++ {
			if send, recv, cap := at(rd.SendWords, i), at(rd.RecvWords, i), c.SmallCapOf(i); send > cap || recv > cap {
				t.Errorf("round %d: machine %d sends %d and receives %d words, past its capacity %d", x, i, send, recv, cap)
			}
			switch inGroup := lo <= i && i < hi; {
			case x == 0 && i == lo:
				if recv := at(rd.RecvWords, i); recv != list {
					t.Errorf("machine %d is handed %d words, want the list's %d", i, recv, list)
				}
			case x == 0 && inGroup:
				if recv := at(rd.RecvWords, i); recv != 0 {
					t.Errorf("machine %d of leader %d's group is sent %d words directly, want the tree's list", i, small, recv)
				}
			case x > 0 && !inGroup:
				if recv := at(rd.RecvWords, i); recv != 0 {
					t.Errorf("tree round %d sends machine %d, outside leader %d's group, %d words", x, i, small, recv)
				}
			case x > 0:
				tree += at(rd.RecvWords, i)
			}
		}
	}
	if want := (hi - lo - 1) * list; tree != want {
		t.Errorf("the tree carries %d words, want one list to each of %d machines = %d", tree, hi-lo-1, want)
	}
}

// leaderInput is the leader tests' input: k machines of 100 to 163 keys
// that vary in all three columns, so every run is longer than its sample
// (wholeRun) and every machine is sent the list.
func leaderInput(k int) [][]SortKey {
	rng := rand.New(rand.NewPCG(7, 45))
	data := make([][]SortKey, k)
	for i := range data {
		for j := 0; j < 100+i; j++ {
			data[i] = append(data[i], SortKey{A: rng.Int64N(1 << 20), B: int64(i), C: int64(j)})
		}
	}
	return data
}

// TestSortLeadersShareTheSamples pins step 2 under r = ⌈√K⌉ leaders
// (DESIGN.md §1): at K = 64, with and without the large machine, 8 leaders
// each take their group of 8 machines' samples, then 7 summaries of 4g = 32
// keys (every sample is q keys of a longer run). No machine receives more
// over the two rounds than its group's samples and r-1 summaries, where the
// coordinator alone took all 64 samples; and the buckets are the splitter
// rule's over the list the leaders agreed on.
func TestSortLeadersShareTheSamples(t *testing.T) {
	for _, noLarge := range []bool{false, true} {
		cfg := mpc.Config{N: 1024, M: 8192, K: 64, Seed: 7, NoLarge: noLarge}
		data := leaderInput(cfg.K)
		c, rounds := sortRounds(t, cfg, data)
		ld := sortLeaders(c, split{})
		const r, g = 8, 8
		if ld.r() != r || ld.g != g || rounds[1].Phase != "sort/summary" {
			t.Fatalf("noLarge=%v: %d leaders of %d, second round %q: want %d of %d and the summaries", noLarge, ld.r(), ld.g, rounds[1].Phase, r, g)
		}
		// A sample is q keys under its count; a summary 4g keys, its header.
		_, q := ld.wholeRun(c, 0, len(data[0]))
		sample, summary := int64(sortKeyWords*q+1), int64(sortKeyWords*4*g+1)
		for slot := range rounds[0].RecvWords {
			got := int64(rounds[0].RecvWords[slot] + rounds[1].RecvWords[slot])
			if want := g*sample + (r-1)*summary; got > want {
				t.Errorf("noLarge=%v: trace slot %d receives %d words in the sample and summary rounds, want at most %d samples and %d summaries = %d", noLarge, slot, got, g, r-1, want)
			}
			if leader := slot >= 1 && slices.Contains(ld.ids, slot-1); !leader && got != 0 {
				t.Errorf("noLarge=%v: trace slot %d is no leader and receives %d words", noLarge, slot, got)
			}
		}
		if got, want := rounds[1].Words, int64(r*(r-1))*summary; got != want {
			t.Errorf("noLarge=%v: the summary round carries %d words, want %d summaries = %d", noLarge, got, r*(r-1), want)
		}

		sp, _ := sortedSplitters(t, cfg, data)
		all := Flatten(data)
		slices.SortFunc(all, SortKey.Compare)
		in := make([][]SortKey, len(data))
		for i := range data {
			in[i] = slices.Clone(data[i])
		}
		c, err := mpc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sorted, err := Sort(c, in, 1, identKey)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]SortKey, cfg.K)
		walkBuckets(all, sp, cfg.K, identKey, func(j int, run []SortKey) { want[j] = run })
		for j := range want {
			if !slices.Equal(sorted[j], want[j]) {
				t.Fatalf("noLarge=%v: bucket %d holds %d keys, the splitter rule's %d", noLarge, j, len(sorted[j]), len(want[j]))
			}
		}
	}
}

// TestSortLeaderCrash crashes a leader in the summary round, under a plan
// that checkpoints every round: the recovery is lossless, so the output is
// the fault-free run's.
func TestSortLeaderCrash(t *testing.T) {
	cfg := mpc.Config{N: 1024, M: 8192, K: 64, Seed: 7}
	data := leaderInput(cfg.K)
	_, rounds := sortRounds(t, cfg, data)
	summary := slices.IndexFunc(rounds, func(r trace.Round) bool { return r.Phase == "sort/summary" })
	if summary < 0 {
		t.Fatal("no summary round")
	}
	const victim = 8 // the second group's leader
	if rounds[summary].SendWords[1+victim] == 0 {
		t.Fatalf("machine %d sends no summary", victim)
	}
	run := func(plan *fault.Plan) ([][]SortKey, mpc.Stats) {
		cfg := cfg
		cfg.Faults = plan
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
		return sorted, c.Stats()
	}
	plain, _ := run(nil)
	faulty, st := run(&fault.Plan{
		Interval: 1,
		Crashes:  []fault.Crash{{Round: rounds[summary].Round, Machine: victim, RestartAfter: 1}},
	})
	if !reflect.DeepEqual(plain, faulty) {
		t.Fatal("a leader's crash changed the sorted output")
	}
	if st.Crashes < 1 || st.RecoveryRounds == 0 {
		t.Fatalf("the leader's crash was not recovered: %+v", st)
	}
}

// TestSortBeefyCoordinatorLeadsAlone: a large machine 64× a small one's
// speed and link is more than r = 8 times cheaper a word than any leader,
// so it stays the one leader (sortLeaders) and a Sort is sample, reply,
// route with every sample sent to it.
func TestSortBeefyCoordinatorLeadsAlone(t *testing.T) {
	cfg := mpc.Config{N: 1024, M: 8192, K: 64, Seed: 7, Profile: mpc.UniformProfile(64)}
	cfg.Profile.LargeCost = 1.0 / 32
	c, rounds := sortRounds(t, cfg, leaderInput(cfg.K))
	if ld := sortLeaders(c, split{}); ld.r() != 1 || ld.ids[0] != mpc.Large {
		t.Fatalf("leaders %v, want the large machine alone", ld.ids)
	}
	if len(rounds) != 3 || rounds[1].Phase != "sort/broadcast" {
		t.Fatalf("Sort charged %d rounds, want sample, reply, route: %+v", len(rounds), rounds)
	}
	if got := rounds[0].RecvWords[0]; int64(got) != rounds[0].Words {
		t.Errorf("the large machine receives %d of the sample round's %d words, want all", got, rounds[0].Words)
	}
}

// TestSortSampledBucketsBalanced: a machine that samples q of its n items
// takes each block's middle key (DESIGN.md §1), so a splitter the weighted
// walk takes splits its block evenly. At K = 512 with 1,024 uniform keys a
// machine and q = 64, taking each block's first key — which the walk
// counted as the whole block after it — left the largest bucket 5,817
// items against the target of 1,024; the middles leave it under 3×.
func TestSortSampledBucketsBalanced(t *testing.T) {
	const k, per = 512, 1024
	cfg := mpc.Config{N: 4096, M: 8 * 4096, K: k, Seed: 7}
	c, err := mpc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if whole, q := sortLeaders(c, split{}).wholeRun(c, 0, per); whole || q != 64 {
		t.Fatalf("wholeRun(%d) = %v, q = %d: want a sample of 64 keys", per, whole, q)
	}
	rng := rand.New(rand.NewPCG(7, 512))
	data := make([][]SortKey, k)
	for i := range data {
		data[i] = make([]SortKey, per)
		for j := range data[i] {
			data[i][j] = SortKey{A: rng.Int64()}
		}
	}
	sorted, err := Sort(c, data, 1, identKey)
	if err != nil {
		t.Fatal(err)
	}
	largest := 0
	for i := range sorted {
		largest = max(largest, len(sorted[i]))
	}
	t.Logf("largest bucket: %d items, target %d", largest, per)
	if largest > 3*per {
		t.Errorf("largest bucket holds %d items, want at most 3 × %d", largest, per)
	}
}

// TestSortLeadersFollowKeyWidth runs four Sorts of one MST-shaped input on
// the shape of the wire benchmark's MST cells (n = 1,024, m = 16,384: K =
// 512) and reads each Sort's leaders off its trace: the machines its sample
// round reaches. Arrange's grouped Sort and AggregateByKey's sample,
// summarise and list keys that vary in column A only, one word a key, and
// NewPlan's requests vary in column A within a machine's sample, in A and
// C within a summary, so their leaders' held state fits half a small
// machine and ⌈√K⌉ = 23 lead (sortLeaders); a plain Sort of 3-column keys
// is charged three words a key, and its samples, summaries and a whole
// run's cuts fit too, so 23 lead it as well. A plan on the scale
// benchmark's wide MST cell (n = 4,096, m = 32,768: K = 2,048) gets its
// ⌈√K⌉ = 46 leaders too. Connectivity's incidence Sort on the core.cc
// cell at n = 1,024, m = 32n (K = 1,024) keys 2-word items by their vertex
// alone: as a plain Sort, counted at 3 words a key, its coordinator leads
// alone, and as SortOneColumn ⌈√K⌉ = 32 lead. No leader receives in the
// sample and summary rounds and sends in the reply round more than half its
// capacity. At a
// third of the default caps, an Arrange with a 30,000-item group, too large for any bucket, samples again with full keys
// under sort/full (groupsFit): it does so on the plain Sort's leaders, and
// its buckets are the plain Sort's.
func TestSortLeadersFollowKeyWidth(t *testing.T) {
	cfg := mpc.Config{N: 1024, M: 16384, Seed: 7}
	g := graph.ConnectedGNM(cfg.N, cfg.M, cfg.Seed, true)
	// directed is every edge both ways, dealt round-robin, and lump more
	// items under the key -1: MST's arrangement, fresh for every call.
	directed := func(k, lump int) [][]graph.Edge {
		data := make([][]graph.Edge, k)
		for j, e := range g.Edges {
			data[j%k] = append(data[j%k], e)
			data[(j+1)%k] = append(data[(j+1)%k], graph.Edge{U: e.V, V: e.U, W: e.W})
		}
		for j := 0; j < lump; j++ {
			data[j%k] = append(data[j%k], graph.Edge{U: -1, V: j % cfg.N, W: int64(j)})
		}
		return data
	}
	byVertex := func(e graph.Edge) SortKey { return SortKey{A: int64(e.U), B: e.W, C: int64(e.V)} }
	traced := func(cfg mpc.Config, call func(c *mpc.Cluster) error) (*mpc.Cluster, []trace.Round) {
		t.Helper()
		tr := trace.New()
		cfg.Trace = tr
		c, err := mpc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := call(c); err != nil {
			t.Fatal(err)
		}
		return c, tr.Rounds()
	}
	// leaders checks one Sort of the rounds, which start at its sample round
	// (that of its pass under sort/full when full): r machines receive in
	// it, and no leader holds more than half its capacity over its sample,
	// summary and reply rounds. It returns the leaders' trace slots.
	leaders := func(name string, c *mpc.Cluster, rounds []trace.Round, full bool, r int) []int {
		t.Helper()
		if full {
			at := slices.IndexFunc(rounds, func(rd trace.Round) bool { return strings.HasSuffix(rd.Phase, "sort/full") })
			if at < 0 {
				t.Fatalf("%s: no round under sort/full", name)
			}
			rounds = rounds[at:]
		}
		var slots []int
		for slot, w := range rounds[0].RecvWords {
			if w > 0 {
				slots = append(slots, slot)
			}
		}
		if len(slots) != r {
			t.Fatalf("%s: %d machines receive samples, want %d leaders", name, len(slots), r)
		}
		summary := slices.IndexFunc(rounds, func(rd trace.Round) bool { return strings.HasSuffix(rd.Phase, "sort/summary") })
		reply := slices.IndexFunc(rounds, func(rd trace.Round) bool { return strings.HasSuffix(rd.Phase, "sort/broadcast") })
		if reply < 0 || (summary >= 0) != (r > 1) || summary >= 0 && summary > reply {
			t.Fatalf("%s: summary round at %d, reply round at %d: want a reply, after a summary iff r > 1", name, summary, reply)
		}
		for _, slot := range slots {
			held, capacity := rounds[0].RecvWords[slot]+rounds[reply].SendWords[slot], c.LargeCap()
			if summary >= 0 {
				held += rounds[summary].RecvWords[slot]
			}
			if slot > 0 {
				capacity = c.SmallCapOf(slot - 1)
			}
			if 2*held > capacity {
				t.Errorf("%s: trace slot %d holds %d words over the sample, summary and reply rounds, past half its capacity %d", name, slot, held, capacity)
			}
		}
		return slots
	}

	c, rounds := traced(cfg, func(c *mpc.Cluster) error {
		if c.K() != 512 {
			t.Fatalf("K = %d, want the wire cells' 512", c.K())
		}
		_, err := Arrange(c, directed(c.K(), 0), byVertex, EdgeWords)
		return err
	})
	leaders("Arrange", c, rounds, false, 23)
	c, rounds = traced(cfg, func(c *mpc.Cluster) error {
		data := directed(c.K(), 0)
		items := make([][]KV[int64], len(data))
		for i, run := range data {
			for _, e := range run {
				items[i] = append(items[i], KV[int64]{K: int64(e.U), V: 1})
			}
		}
		_, err := AggregateByKey(c, items, 1, func(a, b int64) int64 { return a + b })
		return err
	})
	leaders("AggregateByKey", c, rounds, false, 23)
	// plan asks every machine for the far ends of its MST arrangement's edges.
	plan := func(c *mpc.Cluster, g *graph.Graph) error {
		data := make([][]int64, c.K())
		for j, e := range g.Edges {
			data[j%c.K()] = append(data[j%c.K()], int64(e.V))
			data[(j+1)%c.K()] = append(data[(j+1)%c.K()], int64(e.U))
		}
		needs, _ := DistinctSlots(data)
		_, err := NewPlan(c, needs, 1)
		return err
	}
	c, rounds = traced(cfg, func(c *mpc.Cluster) error { return plan(c, g) })
	leaders("NewPlan", c, rounds, false, 23)
	wide := mpc.Config{N: 4096, M: 32768, K: 2048, Seed: 7}
	c, rounds = traced(wide, func(c *mpc.Cluster) error { return plan(c, graph.ConnectedGNM(wide.N, wide.M, wide.Seed, true)) })
	leaders("wide NewPlan", c, rounds, false, 46)
	c, rounds = traced(cfg, func(c *mpc.Cluster) error {
		_, err := Sort(c, directed(c.K(), 0), EdgeWords, byVertex)
		return err
	})
	leaders("Sort", c, rounds, false, 23)
	// Connectivity's incidence Sort on the n = 1,024, m = 32n cell (K =
	// 1,024): 2-word items keyed by their vertex alone. Counted at 3 words a
	// key its leaders' held state leaves the coordinator alone; counted at
	// the one column that varies, ⌈√K⌉ = 32 lead.
	dense := mpc.Config{N: 1024, M: 32768, Seed: 7}
	incidences := func(c *mpc.Cluster) [][]KV[int64] {
		if c.K() != 1024 {
			t.Fatalf("K = %d, want the dense cell's 1024", c.K())
		}
		items := make([][]KV[int64], c.K())
		for j, e := range graph.GNM(dense.N, dense.M, dense.Seed).Edges {
			items[j%c.K()] = append(items[j%c.K()], KV[int64]{K: int64(e.U), V: int64(e.V)}, KV[int64]{K: int64(e.V), V: int64(e.U)})
		}
		return items
	}
	byKey := func(kv KV[int64]) SortKey { return SortKey{A: kv.K} }
	c, rounds = traced(dense, func(c *mpc.Cluster) error {
		_, err := Sort(c, incidences(c), 2, byKey)
		return err
	})
	leaders("incidence Sort", c, rounds, false, 1)
	c, rounds = traced(dense, func(c *mpc.Cluster) error {
		_, err := SortOneColumn(c, incidences(c), 2, byKey)
		return err
	})
	leaders("incidence SortOneColumn", c, rounds, false, 32)

	// A third of the default caps still holds 23 leaders' one-word keys, not
	// a lump of 30,000 items at EdgeWords each.
	tight := cfg
	tight.CSmall = 2
	const lump = 30000
	var arranged, sorted [][]graph.Edge
	c, rounds = traced(tight, func(c *mpc.Cluster) error {
		if lump*EdgeWords <= c.SmallCapOf(0) {
			t.Fatalf("a small machine of %d words holds the lump", c.SmallCapOf(0))
		}
		arr, err := Arrange(c, directed(c.K(), lump), byVertex, EdgeWords)
		if err == nil {
			arranged = arr.Data
		}
		return err
	})
	leaders("tight Arrange", c, rounds, false, 23)
	fullLeaders := leaders("tight Arrange's full pass", c, rounds, true, 1)
	c, rounds = traced(tight, func(c *mpc.Cluster) error {
		var err error
		sorted, err = Sort(c, directed(c.K(), lump), EdgeWords, byVertex)
		return err
	})
	if plain := leaders("tight Sort", c, rounds, false, 1); !slices.Equal(fullLeaders, plain) {
		t.Fatalf("the full pass is led by trace slots %v, the plain Sort by %v", fullLeaders, plain)
	}
	if !reflect.DeepEqual(arranged, sorted) {
		t.Fatal("the tight Arrange's buckets are not the plain Sort's")
	}
}

// TestSampleMergeIsStable pins the leaders' merge order (sampleMerge): the
// samples' keys in key order, equal keys in delivery order and, within one
// sample, in its own order — a stable sort of the samples' concatenation.
// The samples draw from a few keys, so most keys tie across samples.
func TestSampleMergeIsStable(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for trial := 0; trial < 50; trial++ {
		inbox := make([]mpc.Msg, 1+rng.IntN(12))
		var want []mergeRef
		for j := range inbox {
			s := &sample{Keys: make([]SortKey, rng.IntN(150))}
			for x := range s.Keys {
				s.Keys[x] = SortKey{A: rng.Int64N(4), C: rng.Int64N(3)}
			}
			slices.SortFunc(s.Keys, SortKey.Compare)
			s.Count = len(s.Keys)
			inbox[j] = mpc.Msg{From: j, Data: s}
			for x := range s.Keys {
				want = append(want, mergeRef{int32(j), int32(x)})
			}
		}
		m, err := inboxSamples(inbox, make([]*sample, len(inbox)), nil)
		if err != nil {
			t.Fatal(err)
		}
		slices.SortStableFunc(want, func(a, b mergeRef) int { return m.key(a).Compare(m.key(b)) })
		if !slices.Equal(m.order, want) {
			t.Fatalf("trial %d: %d samples merge to %v, a stable sort of their concatenation to %v", trial, len(inbox), m.order, want)
		}
	}
}
