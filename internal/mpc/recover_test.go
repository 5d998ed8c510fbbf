package mpc

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"hetmpc/internal/fault"
	"hetmpc/internal/trace"
)

// heldLen is the test stand-in for algorithm state: machine i holds
// state[i], one word an item.
func heldLen(state [][]int) func(int) int {
	return func(i int) int { return len(state[i]) }
}

// faultCluster builds a small cluster with the given plan and registers a
// slice per machine holding `words` items.
func faultCluster(t *testing.T, plan *fault.Plan, words int) (*Cluster, [][]int) {
	t.Helper()
	c := newTest(t, Config{N: 64, M: 256, Seed: 1, Faults: plan})
	state := make([][]int, c.K())
	for i := range state {
		for j := 0; j < words; j++ {
			state[i] = append(state[i], i*1000+j)
		}
	}
	c.HoldState(heldLen(state))
	return c, state
}

func TestInactivePlanInstallsNoEngine(t *testing.T) {
	c := newTest(t, Config{N: 64, M: 256, Seed: 1, Faults: &fault.Plan{}})
	if c.FaultsActive() {
		t.Fatal("zero plan activated the fault engine")
	}
	if c.Buddy(0) != -1 {
		t.Fatal("buddy map exists without a fault engine")
	}
	c.HoldState(heldLen(nil)) // must be a silent no-op
}

func TestPlanValidationAtNew(t *testing.T) {
	bad := &fault.Plan{Crashes: []fault.Crash{{Round: 1, Machine: 99999}}}
	if _, err := New(Config{N: 64, M: 256, Seed: 1, Faults: bad}); err == nil {
		t.Fatal("out-of-range crash machine accepted")
	}
}

func TestBuddyMapPairsLargeWithSmall(t *testing.T) {
	caps := []int{100, 80, 60, 40, 20, 10}
	buddy := buddyMap(caps)
	for i, b := range buddy {
		if b == i {
			t.Fatalf("machine %d is its own buddy", i)
		}
		if b < 0 || b >= len(caps) {
			t.Fatalf("buddy[%d] = %d out of range", i, b)
		}
	}
	// Rank pairing with shift 3: capacity rank 0 (machine 0) pairs with
	// rank 3 (machine 3), so the largest machine holds a small one's state.
	if buddy[0] != 3 || buddy[3] != 0 {
		t.Fatalf("rank pairing broken: buddy[0]=%d buddy[3]=%d", buddy[0], buddy[3])
	}
}

// TestCheckpointBarrierChargesReplication: checkpoints happen at the
// configured cadence, charge the replicated words, and inflate the makespan
// by latency + the busiest machine's transfer time.
func TestCheckpointBarrierChargesReplication(t *testing.T) {
	const words = 5
	c, _ := faultCluster(t, &fault.Plan{Interval: 2}, words)
	k := c.K()
	for r := 0; r < 4; r++ {
		if _, _, err := c.Exchange(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Checkpoints != 2 {
		t.Fatalf("checkpoints %d, want 2 (rounds 2 and 4)", st.Checkpoints)
	}
	wantWords := int64(2 * k * words)
	if st.ReplicationWords != wantWords {
		t.Fatalf("replication words %d, want %d", st.ReplicationWords, wantWords)
	}
	if st.Crashes != 0 || st.RecoveryRounds != 0 {
		t.Fatalf("phantom crashes: %+v", st)
	}
	// 4 silent rounds + 2 checkpoint barriers, each barrier: latency 1 +
	// busiest machine moving 2·words (its own snapshot out, its buddy's in)
	// at unit cost (1/speed + 1/bw = 2).
	want := 4.0 + 2*(1.0+float64(2*words)*2)
	if st.Makespan != want {
		t.Fatalf("makespan %v, want %v", st.Makespan, want)
	}
}

// TestCrashRecoveryCharges: an explicit crash restores from the buddy,
// charging the replica transfer and the replay rounds since the last
// checkpoint.
func TestCrashRecoveryCharges(t *testing.T) {
	const words = 4
	plan := &fault.Plan{
		Interval: 2,
		Crashes:  []fault.Crash{{Round: 3, Machine: 1, RestartAfter: 2}},
	}
	c, _ := faultCluster(t, plan, words)
	for r := 0; r < 3; r++ {
		if _, _, err := c.Exchange(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Crashes != 1 {
		t.Fatalf("crashes %d, want 1", st.Crashes)
	}
	// Detect (1) + replay rounds 3-2=1 + restart 2.
	if want := 1 + 1 + 2; st.RecoveryRounds != want {
		t.Fatalf("recovery rounds %d, want %d", st.RecoveryRounds, want)
	}
	// Checkpoint at round 2 replicated k·words; the crash restore moved the
	// victim's replica (words) once more.
	if want := int64(c.K()*words + words); st.ReplicationWords != want {
		t.Fatalf("replication words %d, want %d", st.ReplicationWords, want)
	}
}

// TestBarrierReadsHeldWordsWhenItRuns: the held-words view is read at each
// checkpoint barrier, not when it is registered, so a bucket that grows
// between rounds is replicated at its new length; a crash restores the
// replica the last barrier sized, whatever the machine holds by then.
func TestBarrierReadsHeldWordsWhenItRuns(t *testing.T) {
	const words, grow = 3, 5
	plan := &fault.Plan{
		Interval: 2,
		Crashes:  []fault.Crash{{Round: 3, Machine: 1}},
	}
	c, state := faultCluster(t, plan, words)
	k := c.K()
	exchange := func() {
		t.Helper()
		if _, _, err := c.Exchange(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	exchange()
	exchange()
	if got, want := c.Stats().ReplicationWords, int64(k*words); got != want {
		t.Fatalf("round-2 barrier replicated %d words, want %d", got, want)
	}
	state[1] = append(state[1], make([]int, grow)...)
	exchange() // machine 1 crashes and restores the round-2 replica
	if got, want := c.Stats().ReplicationWords, int64(k*words+words); got != want {
		t.Fatalf("after the round-3 restore: %d words replicated, want %d", got, want)
	}
	exchange()
	if got, want := c.Stats().ReplicationWords, int64(2*k*words+words+grow); got != want {
		t.Fatalf("round-4 barrier: %d words replicated in all, want %d (machine 1 at its new length)", got, want)
	}
}

// TestBuddyDeathFallsBackToReplay: when a machine and its buddy die at the
// same barrier, recovery replays cold — more recovery rounds, no restore
// transfer.
func TestBuddyDeathFallsBackToReplay(t *testing.T) {
	c0, _ := faultCluster(t, &fault.Plan{Interval: 4}, 3)
	victim, buddy := 1, c0.Buddy(1)

	run := func(plan *fault.Plan) Stats {
		c, _ := faultCluster(t, plan, 3)
		for r := 0; r < 6; r++ {
			if _, _, err := c.Exchange(nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats()
	}
	solo := run(&fault.Plan{Interval: 4, Crashes: []fault.Crash{
		{Round: 6, Machine: victim},
	}})
	pair := run(&fault.Plan{Interval: 4, Crashes: []fault.Crash{
		{Round: 6, Machine: victim}, {Round: 6, Machine: buddy},
	}})
	// Solo: rec = 1 + (6-4) = 3 per victim; replica transfer charged.
	if solo.Crashes != 1 || solo.RecoveryRounds != 3 {
		t.Fatalf("solo crash: %+v", solo)
	}
	// Pair: both victims replay cold, rec = 2 + 2·2 = 6 each; no restore
	// words beyond the checkpoint replication (identical in both runs).
	if pair.Crashes != 2 || pair.RecoveryRounds != 12 {
		t.Fatalf("pair crash: %+v", pair)
	}
	if pair.ReplicationWords >= solo.ReplicationWords {
		t.Fatalf("cold replay should move fewer words: pair %d vs solo %d",
			pair.ReplicationWords, solo.ReplicationWords)
	}
}

// TestCrashDuringDowntimeAbsorbed: a machine that fails again while still
// inside a previous crash's restart downtime is not charged a second
// independent recovery.
func TestCrashDuringDowntimeAbsorbed(t *testing.T) {
	plan := &fault.Plan{
		Interval: 2,
		Crashes: []fault.Crash{
			{Round: 3, Machine: 1, RestartAfter: 3}, // down through round 6
			{Round: 5, Machine: 1},                  // inside the downtime: absorbed
			{Round: 7, Machine: 1},                  // after restart: a fresh crash
		},
	}
	c, _ := faultCluster(t, plan, 3)
	for r := 0; r < 8; r++ {
		if _, _, err := c.Exchange(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().Crashes; got != 2 {
		t.Fatalf("crashes %d, want 2 (round-5 failure absorbed by downtime)", got)
	}
}

// TestSlowdownWindowMovesOnlyMakespan: a transient slowdown leaves every
// communication stat untouched and raises the makespan during its window.
func TestSlowdownWindowMovesOnlyMakespan(t *testing.T) {
	run := func(plan *fault.Plan) Stats {
		c := newTest(t, Config{N: 1024, M: 8192, Seed: 5, Faults: plan})
		for r := 0; r < 3; r++ {
			outs, outLarge := buildHeavyRound(c)
			if _, _, err := c.Exchange(outs, outLarge); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats()
	}
	base := run(nil)
	// The factor must be large enough for the slowed machine to out-last
	// the large machine (the makespan is a max over machines).
	slowed := run(&fault.Plan{Slowdowns: []fault.Slowdown{{Machine: 0, From: 2, To: 2, Factor: 1e5}}})
	if slowed.Rounds != base.Rounds || slowed.Messages != base.Messages ||
		slowed.TotalWords != base.TotalWords || slowed.MaxSendWords != base.MaxSendWords {
		t.Fatalf("slowdown changed communication stats: %+v vs %+v", slowed, base)
	}
	if slowed.Makespan <= base.Makespan {
		t.Fatalf("slowdown did not raise makespan: %v vs %v", slowed.Makespan, base.Makespan)
	}
}

// TestRecoveryDeterministicAcrossGOMAXPROCS: a run with checkpoints,
// rate-derived crashes and slowdowns produces bit-identical Stats whether
// the engine fans out over goroutines or runs on one CPU.
func TestRecoveryDeterministicAcrossGOMAXPROCS(t *testing.T) {
	plan := &fault.Plan{
		Interval:  2,
		CrashRate: 0.02,
		Slowdowns: []fault.Slowdown{{Machine: 1, From: 1, To: 8, Factor: 4}},
	}
	run := func() Stats {
		c := newTest(t, Config{N: 1024, M: 8192, Seed: 5, Faults: plan})
		state := make([][]int, c.K())
		for i := range state {
			state[i] = []int{i, i + 1, i + 2}
		}
		c.HoldState(heldLen(state))
		for r := 0; r < 10; r++ {
			outs, outLarge := buildHeavyRound(c)
			if _, _, err := c.Exchange(outs, outLarge); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats()
	}
	prev := runtime.GOMAXPROCS(1)
	one := run()
	runtime.GOMAXPROCS(prev)
	many := run()
	if one != many {
		t.Fatalf("stats differ across GOMAXPROCS:\n 1: %+v\n n: %+v", one, many)
	}
	if one.Crashes == 0 || one.Checkpoints == 0 {
		t.Fatalf("plan injected nothing: %+v", one)
	}
}

// TestBuddyMapIsPermutation: for every K from 2 to 64 and capacity vectors
// with ties, skew and a straggler profile's capacities, every machine is the
// buddy of exactly one machine and never its own. Concurrent recovery
// (recoverCrashes) rests on this: a live machine serves at most one restore
// per barrier, so no two victims of one barrier share a machine or a link.
func TestBuddyMapIsPermutation(t *testing.T) {
	for k := 2; k <= 64; k++ {
		tied, skewed, descending := make([]int, k), make([]int, k), make([]int, k)
		for i := range tied {
			tied[i] = 100
			skewed[i] = 10 + (i*37)%7 // seven capacity levels, ties within each
			descending[i] = 10 * (k - i)
		}
		straggler := newTest(t, Config{N: 64, M: 256, K: k, Seed: 1, Profile: StragglerProfile(k, 2, 8)}).smallCaps
		zipf := newTest(t, Config{N: 64, M: 256, K: k, Seed: 1, Profile: ZipfProfile(k, 1.2, 0.05)}).smallCaps
		for name, caps := range map[string][]int{
			"tied": tied, "skewed": skewed, "descending": descending, "straggler": straggler, "zipf": zipf,
		} {
			buddy := buddyMap(caps)
			served := make([]int, k)
			for i, b := range buddy {
				if b == i {
					t.Fatalf("k=%d %s: machine %d is its own buddy", k, name, i)
				}
				served[b]++
			}
			for i, n := range served {
				if n != 1 {
					t.Fatalf("k=%d %s: machine %d is the buddy of %d machines, want 1", k, name, i, n)
				}
			}
		}
	}
}

// traced attaches a trace collector to a cluster before its first round, as
// Config.Trace would, so a test can read the recovery records.
func traced(c *Cluster) *trace.Collector {
	c.tr = trace.New()
	return c.tr
}

// recoveries returns the recovery records of the barrier ending round r.
func recoveries(tr *trace.Collector, r int) []trace.Round {
	var out []trace.Round
	for _, rd := range tr.Rounds() {
		if rd.Kind == trace.KindRecovery && rd.Round == r {
			out = append(out, rd)
		}
	}
	return out
}

// runFaulted runs `rounds` silent rounds on a faultCluster holding 4 words
// a machine and returns its timeline and Stats.
func runFaulted(t *testing.T, plan *fault.Plan, rounds int) (*trace.Collector, Stats) {
	t.Helper()
	c, _ := faultCluster(t, plan, 4)
	tr := traced(c)
	for r := 0; r < rounds; r++ {
		if _, _, err := c.Exchange(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	return tr, c.Stats()
}

// barrierCharge checks the concurrency rule on one barrier's records — the
// slowest victim's record (the first on a tie) carries the barrier's whole
// makespan, every other record 0 — and returns that makespan.
func barrierCharge(t *testing.T, recs []trace.Round) float64 {
	t.Helper()
	slowest, want := 0, 0.0
	for j, rd := range recs {
		if cost := float64(rd.RecoveryRounds)*rd.Latency + rd.MaxTime; j == 0 || cost > want {
			slowest, want = j, cost
		}
	}
	for j, rd := range recs {
		if j == slowest && rd.Makespan != want {
			t.Fatalf("slowest victim %d carries makespan %v, want the barrier's %v", rd.Victim, rd.Makespan, want)
		}
		if j != slowest && rd.Makespan != 0 {
			t.Fatalf("victim %d carries makespan %v beside the slowest victim %d", rd.Victim, rd.Makespan, recs[slowest].Victim)
		}
	}
	return want
}

// TestRecoveryOneVictimCharge: a barrier with one victim charges exactly
// the per-victim formula rec·latency + max(ti, tb) + replayT, bit for bit.
func TestRecoveryOneVictimCharge(t *testing.T) {
	const words, victim, restart = 4, 1, 2
	plan := &fault.Plan{Interval: 2, Crashes: []fault.Crash{{Round: 3, Machine: victim, RestartAfter: restart}}}
	c, _ := faultCluster(t, plan, words)
	tr := traced(c)
	for r := 0; r < 2; r++ {
		if _, _, err := c.Exchange(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := c.BusyTime(victim)
	if _, _, err := c.Exchange(nil, nil); err != nil {
		t.Fatal(err)
	}
	recs := recoveries(tr, 3)
	if len(recs) != 1 {
		t.Fatalf("%d recovery records at round 3, want 1", len(recs))
	}
	// Restore (buddy alive) + replay of round 3 + restart downtime.
	rec := 1 + (3 - 2) + restart
	ti := float64(words) * c.WordCost(victim)
	tb := float64(words) * c.WordCost(c.Buddy(victim))
	replayT := float64(3-2) * (before + ti) / 3
	want := float64(rec)*c.latency + math.Max(ti, tb) + replayT
	if got := recs[0]; got.RecoveryRounds != rec || got.Makespan != want {
		t.Fatalf("one-victim record: %d rounds, makespan %v; want %d, %v", got.RecoveryRounds, got.Makespan, rec, want)
	}
}

// TestRecoveryVictimsRecoverConcurrently: two victims with live buddies
// crashing at one barrier cost the barrier the larger of their single-crash
// recovery charges, strictly below the sum a serial recovery would charge.
func TestRecoveryVictimsRecoverConcurrently(t *testing.T) {
	c0, _ := faultCluster(t, &fault.Plan{Interval: 4}, 4)
	a := 1
	b := a + 1
	for b == c0.Buddy(a) || a == c0.Buddy(b) {
		b++
	}
	crashA := fault.Crash{Round: 6, Machine: a, RestartAfter: 3}
	crashB := fault.Crash{Round: 6, Machine: b}
	single := func(cr fault.Crash) float64 {
		tr, _ := runFaulted(t, &fault.Plan{Interval: 4, Crashes: []fault.Crash{cr}}, 6)
		recs := recoveries(tr, 6)
		if len(recs) != 1 {
			t.Fatalf("%d recovery records for one crash", len(recs))
		}
		return recs[0].Makespan
	}
	ma, mb := single(crashA), single(crashB)
	tr, st := runFaulted(t, &fault.Plan{Interval: 4, Crashes: []fault.Crash{crashA, crashB}}, 6)
	recs := recoveries(tr, 6)
	if len(recs) != 2 || st.Crashes != 2 {
		t.Fatalf("pair crash: %d records, %+v", len(recs), st)
	}
	got := barrierCharge(t, recs)
	if got != math.Max(ma, mb) {
		t.Fatalf("barrier charged %v, want the slower victim's single-crash charge max(%v, %v)", got, ma, mb)
	}
	if got >= ma+mb {
		t.Fatalf("barrier charged %v, not below the serial sum %v", got, ma+mb)
	}
	if want := 2*(1+(6-4)) + 3; st.RecoveryRounds != want {
		t.Fatalf("recovery rounds %d, want both victims' %d", st.RecoveryRounds, want)
	}
}

// TestRecoveryBuddyPairChargesSlowerColdReplay: a victim and its own buddy
// crashing together still both replay cold (the 12 recovery rounds
// TestBuddyDeathFallsBackToReplay expects), and the barrier charges the
// larger of the two cold replays.
func TestRecoveryBuddyPairChargesSlowerColdReplay(t *testing.T) {
	c0, _ := faultCluster(t, &fault.Plan{Interval: 4}, 4)
	victim, buddy := 1, c0.Buddy(1)
	tr, st := runFaulted(t, &fault.Plan{Interval: 4, Crashes: []fault.Crash{
		{Round: 6, Machine: victim}, {Round: 6, Machine: buddy},
	}}, 6)
	recs := recoveries(tr, 6)
	if len(recs) != 2 || st.RecoveryRounds != 12 {
		t.Fatalf("pair crash: %d records, %+v", len(recs), st)
	}
	sum := 0.0
	for _, rd := range recs {
		if rd.RecoveryRounds != 6 || rd.ReplicationWords != 0 {
			t.Fatalf("victim %d did not replay cold: %+v", rd.Victim, rd)
		}
		sum += float64(rd.RecoveryRounds)*rd.Latency + rd.MaxTime
	}
	if got := barrierCharge(t, recs); got >= sum {
		t.Fatalf("barrier charged %v, not below the serial sum %v", got, sum)
	}
}

// FuzzRecoveryBarrier draws a cluster size, a checkpoint interval, explicit
// crashes (round, machine, restart: three bytes each) and a straggler
// profile, runs ten ring rounds, and checks the concurrent-recovery rule on
// every barrier: the barrier's records carry the maximum over its victims
// of RecoveryRounds·latency + MaxTime, bit for bit, at most one of them
// nonzero; Stats.Makespan is the ordered sum of every record and
// Stats.RecoveryRounds still sums every victim's rounds.
func FuzzRecoveryBarrier(f *testing.F) {
	f.Add(uint8(30), uint8(2), uint8(0), uint8(0), []byte{3, 1, 2})
	f.Add(uint8(14), uint8(4), uint8(2), uint8(7), []byte{6, 1, 0, 6, 2, 3, 6, 9, 1})
	f.Add(uint8(0), uint8(0), uint8(1), uint8(15), []byte{5, 0, 0, 5, 1, 0})
	f.Fuzz(func(t *testing.T, kRaw, ivRaw, stragglers, slowdown uint8, crashes []byte) {
		const rounds = 10
		k := 2 + int(kRaw)%63
		plan := &fault.Plan{Interval: int(ivRaw) % 6}
		for j := 0; j+2 < len(crashes) && j < 3*16; j += 3 {
			cr := fault.Crash{Round: 1 + int(crashes[j])%rounds, Machine: int(crashes[j+1]) % k, RestartAfter: int(crashes[j+2]) % 3}
			if !slices.ContainsFunc(plan.Crashes, func(o fault.Crash) bool { return o.Round == cr.Round && o.Machine == cr.Machine }) {
				plan.Crashes = append(plan.Crashes, cr)
			}
		}
		cfg := Config{N: 64, M: 256, K: k, Seed: 1, Faults: plan, Trace: trace.New()}
		if s := int(stragglers) % 4; s > 0 {
			cfg.Profile = StragglerProfile(k, s, 1+float64(slowdown%16))
		}
		c := newTest(t, cfg)
		c.HoldState(func(i int) int { return 1 + (i*7)%5 })
		for r := 0; r < rounds; r++ {
			if _, _, err := c.Exchange(ringRound(c, 1+r%3), nil); err != nil {
				t.Fatal(err)
			}
		}
		st := c.Stats()
		sum, recRounds := 0.0, 0
		barriers := map[int][]trace.Round{}
		for _, rd := range cfg.Trace.Rounds() {
			sum += rd.Makespan
			recRounds += rd.RecoveryRounds
			if rd.Kind == trace.KindRecovery {
				barriers[rd.Round] = append(barriers[rd.Round], rd)
			}
		}
		for _, recs := range barriers {
			barrierCharge(t, recs)
		}
		if sum != st.Makespan {
			t.Fatalf("records sum to makespan %v, Stats says %v", sum, st.Makespan)
		}
		if recRounds != st.RecoveryRounds {
			t.Fatalf("records sum to %d recovery rounds, Stats says %d", recRounds, st.RecoveryRounds)
		}
	})
}
