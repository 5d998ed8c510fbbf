package hetmpc_test

import (
	"reflect"
	"runtime"
	"testing"

	"hetmpc"
)

// comm is the communication-side of ClusterStats (everything except the
// profile-dependent makespan), for comparing runs against the pre-profile
// goldens.
type comm struct {
	Rounds                 int
	Messages, TotalWords   int64
	MaxSendWords, MaxRecvW int
}

func commOf(s hetmpc.ClusterStats) comm {
	return comm{s.Rounds, s.Messages, s.TotalWords, s.MaxSendWords, s.MaxRecvWords}
}

// TestUniformProfileGoldens pins the uniform regime to the exact Stats the
// simulator produced before the cost-model refactor (captured at that
// commit with seed 7): per-machine caps, weighted placement and weighted
// splitter selection must all reduce bit-identically on uniform profiles.
// The table runs each workload three ways — no profile, explicit uniform
// profile, and a straggler (speed-only) profile — all three must reproduce
// the golden communication stats; the straggler run must additionally show
// a strictly larger makespan at the identical round structure. The four
// literals were re-captured once since, when AggregateByKey's boundary-
// report, instruction and tree-combine rounds (which never sent) were
// deleted: per call −3 rounds, −182 messages, −546 words, max-send and
// max-recv untouched. Three of them (connectivity makes no dissemination)
// were re-captured again when dissemination began reading its spans off
// Sort's splitters: per call −2 rounds and fewer messages and words, max-send
// and max-recv untouched; and once more for Sort's cut replies (DESIGN.md §1).
// Matching's was re-captured once more when it began aggregating degrees and
// disseminating over one plan of its endpoints: one Sort of the requests in
// place of three (−4 rounds), max-recv untouched. Connectivity's was
// re-captured once more when its sketch phase began sorting 2-word edge
// incidences instead of aggregating partial sketches: the same 5 rounds,
// −93 % words, max-recv (the gather at the large machine) untouched.
// Matching's and baseline MST's were re-captured once more when the peel and
// Borůvka began building one plan a phase (Borůvka's of its tail labels
// only): one Sort a phase in place of four (the peel) or two (Borůvka), −10
// and −19 rounds, with fewer messages and words and lower max-send and
// max-recv. MST's was re-captured once more when its one-shot disseminations
// became a plan used once and its KKT step began sending only the labels of
// F's vertices (DESIGN.md §1): −1 round (F was empty, so no scatter round),
// 290,964 → 267,048 words, lower max-send and max-recv. Connectivity's was
// re-captured once more when its sketch gather began charging each sketch
// the levels it stores (then 4 + 3·depth words with its key) instead of the full
// sampler's 4 + 3·levels: the same 5 rounds and messages, 581,490 → 240,885
// words, max-recv (the gather) 525,312 → 184,707, max-send untouched. All
// four were re-captured once more when Sort began charging its sample and
// its list by their columns, a constant one once, and a whole run's cuts in
// the shorter of cuts and bucket ids (DESIGN.md §1): the same rounds and
// messages; words 267,048 → 221,728 (MST), 240,885 → 218,385
// (connectivity), 371,359 → 315,195 (matching) and 470,690 → 385,790
// (baseline MST); max-send (the coordinator's replies) 15,834 → 9,141,
// 14,854 → 8,374, 15,940 → 9,159 and 9,631 → 5,555; max-recv untouched but
// baseline MST's, whose samples it is, 13,136 → 4,864. MST's, matching's
// and baseline MST's were re-captured once more when plans began cutting
// their buckets at key boundaries (DESIGN.md §1): every key of these plans
// has at most one tree level's fan-out of requests, so no plan has a span,
// and a dissemination charges no tree-down round and an aggregation no
// span-up round. Rounds 43 → 40, 51 → 40 and 164 → 129; messages
// 36,959 → 36,588, 76,475 → 74,888 and 94,963 → 89,852; words
// 221,728 → 218,613, 315,195 → 307,430 and 385,790 → 355,436; max-send (the
// coordinator's replies, whose aligned splitters have constant B and C
// columns) 9,141 → 8,374, 9,159 → 8,374 and 5,555 → 4,475; max-recv and
// connectivity's, which makes no plan, untouched. Connectivity's was
// re-captured once more when its first sketch batch began shipping
// ⌈log2 n⌉ = 9 of the 18 families, of which Borůvka reads 8 at this seed
// (DESIGN.md §3.4): the same 5 rounds and messages, words
// 218,385 → 125,718, max-recv (the gather) 184,707 → 92,040, max-send
// untouched. Connectivity's was re-captured once more when it began
// shipping the first 3 families per vertex and, once Borůvka read a fourth,
// contracting the components they left and shipping the other 15 once per
// component share (DESIGN.md §3.4): rounds 5 → 8 (a scatter, a route and a
// second gather), messages 8,064 → 8,725, words 125,718 → 112,514, max-recv
// (the first gather) 92,040 → 31,220, max-send untouched. MST's and
// matching's were re-captured once more when Arrange began sampling its
// grouping column only and cutting its buckets at group boundaries
// (DESIGN.md §1): the same 40 rounds; messages 36,588 → 36,041 and
// 74,888 → 74,886; words 218,613 → 195,443 and 307,430 → 291,076; max-recv
// (the large machine's arrange sample) 24,758 → 8,738; max-send untouched.
// All four were re-captured once more when ⌈√K⌉ = 14 group leaders began
// reading the samples, exchanging summaries and replying to their groups
// (DESIGN.md §1): one more round a Sort, rounds 40 → 48, 8 → 9, 40 → 44
// and 129 → 147; messages 36,041 → 35,400, 8,725 → 8,303, 74,886 → 72,777
// and 89,852 → 91,532; words 195,443 → 213,200, 112,514 → 114,686,
// 291,076 → 307,949 and 355,436 → 435,846; max-send (the coordinator's
// replies, now a leader's) 8,374 → 1,024, 8,374 → 3,876, 8,374 → 1,024 and
// 4,475 → 364; max-recv 8,738 → 5,632, 8,738 → 1,024 and 4,864 → 910, as
// no machine reads every sample, connectivity's (its gather) untouched.
// MST's and connectivity's were re-captured once more when the large
// machine began receiving only what it cannot rebuild (DESIGN.md §3): the
// same rounds; messages untouched and 8,303 → 8,311 (the contraction's
// bins are priced by the new share charge); words 213,200 → 210,566 and
// 114,686 → 108,786; max-send untouched and 3,876 → 2,873; max-recv (the
// collection's replies, the first sketch gather) 5,632 → 3,584 and
// 31,220 → 27,124. Connectivity's was re-captured once more when a sketch
// level began shipping its (z, fp) pair without the count word, so a
// sketch costs 1 + 2·depth words (DESIGN.md §3.4): the same 9 rounds;
// messages 8,311 → 8,320 (the contraction's bins are priced by the
// smaller shares); words 108,786 → 94,472; max-send 2,873 → 1,972;
// max-recv (the first sketch gather) 27,124 → 18,936. It was re-captured
// once more when a vertex began shipping its incidences where they cost
// fewer words than its sketches (DESIGN.md §3.4): the same 9 rounds and
// 8,320 messages (the contraction is unchanged); words 94,472 → 84,752;
// max-send 1,972 unchanged; max-recv (the first sketch gather) 18,936 →
// 13,628. MST's and matching's were re-captured once more when the keys of
// a per-key message into or out of the large machine began costing the
// shorter of a key a word and (first key, length) a run, and
// CollectBudget's replies dropped their key word (DESIGN.md §1): the same
// rounds and messages; words 210,566 → 209,236 and 307,949 → 307,049;
// max-send 1,024 → 777 and 1,024 → 787; max-recv 3,584 → 3,072 and
// 1,024 → 930. Matching's was re-captured once more when its Phase 2 began
// running over the vertices of degree above d² alone, after a one-word
// count of them (DESIGN.md §3.3): this graph has none, so no degree flag is
// broadcast and nothing is arranged or collected. Rounds 44 → 35, messages
// 72,777 → 57,198, words 307,049 → 229,174, max-send 787 → 768 (the
// degree scatter's; phase 3's is left), max-recv 930 → 787 (the degree
// gather's, left, after the arrange sample's). It was re-captured once more
// when the peel's first iteration began running over the endpoint plan, the
// high count began riding a sum instead of a degree gather, and a presence
// flag's answer and scatter entry began shipping its key alone (DESIGN.md §1,
// §3.3): rounds 35 → 31, messages 57,198 → 49,886, words 229,174 → 170,314,
// max-send 768 → 720 (phase 3's scatter ships 290 key words, no longer 768
// with its values; the plan Sort's reply round is left), max-recv 787 → 688
// (the degree gather is gone; the peel's first combine route is left).
// Connectivity's was re-captured once more when the vertices that ship
// their incidences stopped riding the contraction, the large machine adding
// those incidences into Borůvka's sums itself (DESIGN.md §3.4): this graph
// has no vertex whose sketches cost fewer words, so the contraction's three
// rounds carry nothing. The same 9 rounds; messages 8,320 → 7,712; words
// 84,752 → 45,160; max-send 1,972 → 564 (the route's is gone; a Sort
// round's is left); max-recv 13,628 → 9,216 (the second gather's is gone;
// the first's is left). MST's, matching's and the MST baseline's were
// re-captured once more when a Sort item began shipping only what its
// receiver cannot rebuild — a plan's request its key, an arranged arc
// (U, W, OU, OV), a dedup root's value its original edge (DESIGN.md §1,
// §3.1): the same rounds, messages, max-send and max-recv; words 209,236 →
// 170,902, 170,314 → 150,740 and 435,846 → 375,010.
func TestUniformProfileGoldens(t *testing.T) {
	gW := hetmpc.ConnectedGNM(512, 4096, 7, true)
	gU := hetmpc.GNM(512, 4096, 7)

	cases := []struct {
		name    string
		noLarge bool
		run     func(c *hetmpc.Cluster) error
		want    comm
	}{
		{"mst", false, func(c *hetmpc.Cluster) error {
			r, err := hetmpc.MST(c, gW)
			if err == nil && r.Weight != 153235 {
				t.Errorf("mst weight %d, want 153235", r.Weight)
			}
			return err
		}, comm{48, 35400, 170902, 777, 3072}},
		{"connectivity", false, func(c *hetmpc.Cluster) error {
			r, err := hetmpc.Connectivity(c, gU)
			if err == nil && r.Components != 1 {
				t.Errorf("components %d, want 1", r.Components)
			}
			return err
		}, comm{9, 7712, 45160, 564, 9216}},
		{"matching", false, func(c *hetmpc.Cluster) error {
			_, err := hetmpc.MaximalMatching(c, gU)
			return err
		}, comm{31, 49886, 150740, 720, 688}},
		{"baseline-mst", true, func(c *hetmpc.Cluster) error {
			r, err := hetmpc.BaselineMST(c, gW)
			if err == nil && r.Weight != 153235 {
				t.Errorf("baseline mst weight %d, want 153235", r.Weight)
			}
			return err
		}, comm{147, 91532, 375010, 364, 910}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := hetmpc.Config{N: 512, M: 4096, Seed: 7, NoLarge: tc.noLarge}
			k := cfg.DeriveK()
			profiles := map[string]*hetmpc.Profile{
				"nil":       nil,
				"uniform":   hetmpc.UniformProfile(k),
				"straggler": hetmpc.StragglerProfile(k, 4, 16),
			}
			makespans := map[string]float64{}
			for pname, p := range profiles {
				cfg.Profile = p
				c, err := hetmpc.NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := tc.run(c); err != nil {
					t.Fatalf("profile %s: %v", pname, err)
				}
				if got := commOf(c.Stats()); got != tc.want {
					t.Fatalf("profile %s: stats %+v, want golden %+v", pname, got, tc.want)
				}
				makespans[pname] = c.Stats().Makespan
			}
			if makespans["nil"] != makespans["uniform"] {
				t.Fatalf("uniform makespan %v differs from nil %v", makespans["uniform"], makespans["nil"])
			}
			if makespans["straggler"] <= makespans["uniform"] {
				t.Fatalf("straggler makespan %v not above uniform %v at equal rounds",
					makespans["straggler"], makespans["uniform"])
			}

			// Fault axis of the same goldens: a fault-free (zero) plan is
			// bit-identical to no plan at all — full Stats, not just the
			// communication side — and an active plan keeps the golden
			// communication stats while charging its overhead on top.
			cfg.Profile = nil
			cfg.Faults = &hetmpc.FaultPlan{}
			cZero, err := hetmpc.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(cZero); err != nil {
				t.Fatalf("zero fault plan: %v", err)
			}
			cfg.Faults = nil
			cNil, err := hetmpc.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(cNil); err != nil {
				t.Fatal(err)
			}
			if cZero.Stats() != cNil.Stats() {
				t.Fatalf("zero fault plan not bit-identical to nil:\n zero: %+v\n  nil: %+v",
					cZero.Stats(), cNil.Stats())
			}
			// Interval 4: the shortest golden, connectivity, is 9 rounds.
			cfg.Faults = &hetmpc.FaultPlan{Interval: 4, CrashRate: 0.002}
			cFault, err := hetmpc.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(cFault); err != nil {
				t.Fatalf("active fault plan: %v", err)
			}
			st := cFault.Stats()
			if got := commOf(st); got != tc.want {
				t.Fatalf("active fault plan changed the golden communication stats: %+v vs %+v", got, tc.want)
			}
			if st.Checkpoints == 0 || st.ReplicationWords == 0 {
				t.Fatalf("active plan replicated nothing: %+v", st)
			}
			if st.Makespan <= makespans["nil"] {
				t.Fatalf("fault overhead missing: makespan %v <= fault-free %v", st.Makespan, makespans["nil"])
			}
		})
	}
}

// TestTable1FaultsChangeOnlyCost pins DESIGN.md §7's losslessness claim on
// every Table-1 row: under checkpoints every 2 rounds and seed-derived
// crashes, each of the twelve calls computes the fault-free output and
// charges the fault-free rounds, messages, words and per-round peaks; the
// crashes show only in Crashes and a higher Makespan.
func TestTable1FaultsChangeOnlyCost(t *testing.T) {
	for _, call := range table1Calls() {
		run := func(plan *hetmpc.FaultPlan) (any, hetmpc.ClusterStats) {
			cfg := call.Config
			cfg.Faults = plan
			out, c := runCall(t, call, cfg)
			return withoutStats(out), c.Stats()
		}
		plain, plainStats := run(nil)
		faulty, faultyStats := run(&hetmpc.FaultPlan{Interval: 2, CrashRate: 0.01})
		if !reflect.DeepEqual(plain, faulty) {
			t.Errorf("%s: faults changed the output", call.Name)
		}
		if got, want := commOf(faultyStats), commOf(plainStats); got != want {
			t.Errorf("%s: faults changed the communication stats: %+v, fault-free %+v", call.Name, got, want)
		}
		if faultyStats.Crashes == 0 {
			t.Errorf("%s: the plan crashed no machine: %+v", call.Name, faultyStats)
		}
		if faultyStats.Makespan <= plainStats.Makespan {
			t.Errorf("%s: makespan %v under faults, not above fault-free %v", call.Name, faultyStats.Makespan, plainStats.Makespan)
		}
	}
}

// withoutStats returns a copy of a result struct with its Stats field
// zeroed: what a call computed, not what it cost.
func withoutStats(out any) any {
	v := reflect.ValueOf(out)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		return out
	}
	cp := reflect.New(v.Elem().Type()).Elem()
	cp.Set(v.Elem())
	if f := cp.FieldByName("Stats"); f.IsValid() {
		f.SetZero()
	}
	return cp.Interface()
}

// TestRecoveryDeterministicAcrossGOMAXPROCS pins the acceptance criterion
// that recovery is deterministic under any GOMAXPROCS: a full MST run with
// checkpoints, seed-derived crashes and a transient slowdown produces
// bit-identical Stats on one CPU and on all of them.
func TestRecoveryDeterministicAcrossGOMAXPROCS(t *testing.T) {
	g := hetmpc.ConnectedGNM(512, 4096, 7, true)
	plan := &hetmpc.FaultPlan{
		Interval:  4,
		CrashRate: 0.003,
		Crashes:   []hetmpc.FaultCrash{{Round: 10, Machine: 2, RestartAfter: 1}},
		Slowdowns: []hetmpc.FaultSlowdown{{Machine: 5, From: 3, To: 30, Factor: 8}},
	}
	run := func() hetmpc.ClusterStats {
		c, err := hetmpc.NewCluster(hetmpc.Config{N: 512, M: 4096, Seed: 7, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		r, err := hetmpc.MST(c, g)
		if err != nil {
			t.Fatal(err)
		}
		if r.Weight != 153235 {
			t.Fatalf("mst weight %d, want golden 153235", r.Weight)
		}
		return c.Stats()
	}
	prev := runtime.GOMAXPROCS(1)
	one := run()
	runtime.GOMAXPROCS(prev)
	many := run()
	if one != many {
		t.Fatalf("recovery stats differ across GOMAXPROCS:\n 1: %+v\n n: %+v", one, many)
	}
	if one.Crashes == 0 {
		t.Fatalf("plan injected no crashes: %+v", one)
	}
}

// TestMakespanMonotoneInSlowdown is the property test: Stats.Makespan is
// monotone nondecreasing in any single machine's slowdown factor, on both
// slowdown axes the simulator has — a transient fault window and a
// persistent profile speed.
func TestMakespanMonotoneInSlowdown(t *testing.T) {
	g := hetmpc.GNM(256, 2048, 11)
	cfg := hetmpc.Config{N: 256, M: 2048, Seed: 11}
	k := cfg.DeriveK()
	factors := []float64{1, 4, 32, 256, 4096}

	connectivity := func(c *hetmpc.Cluster) {
		t.Helper()
		r, err := hetmpc.Connectivity(c, g)
		if err != nil {
			t.Fatal(err)
		}
		_, want := hetmpc.Components(g)
		if r.Components != want {
			t.Fatalf("components %d, want %d", r.Components, want)
		}
	}
	for _, machine := range []int{0, k / 2, k - 1} {
		prevWindow, prevSpeed := 0.0, 0.0
		for _, f := range factors {
			// Axis 1: transient fault-plan window covering the whole run.
			c := cfg
			if f > 1 {
				c.Faults = &hetmpc.FaultPlan{Slowdowns: []hetmpc.FaultSlowdown{
					{Machine: machine, From: 1, To: 1 << 20, Factor: f},
				}}
			}
			cw, err := hetmpc.NewCluster(c)
			if err != nil {
				t.Fatal(err)
			}
			connectivity(cw)
			if ms := cw.Stats().Makespan; ms < prevWindow {
				t.Fatalf("machine %d: window makespan fell from %v to %v at factor %g",
					machine, prevWindow, ms, f)
			} else {
				prevWindow = ms
			}

			// Axis 2: persistent profile speed 1/f on the same machine.
			c = cfg
			p := hetmpc.UniformProfile(k)
			p.Cost[machine] = 1/(1/f) + 1
			c.Profile = p
			cs, err := hetmpc.NewCluster(c)
			if err != nil {
				t.Fatal(err)
			}
			connectivity(cs)
			if ms := cs.Stats().Makespan; ms < prevSpeed {
				t.Fatalf("machine %d: speed makespan fell from %v to %v at factor %g",
					machine, prevSpeed, ms, f)
			} else {
				prevSpeed = ms
			}
		}
	}
}
