package mpc

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"hetmpc/internal/sched"
)

// Placement-policy state (DESIGN.md §8). The policy itself only supplies
// static per-machine placement weights (consumed by the prims through
// PlaceShare); what lives here is the simulator side: validating the policy
// against the cluster's profile, and the per-round first-copy-wins
// accounting of speculate:R, which needs the one thing a static policy
// cannot see — the actual words each machine moved this round, under any
// transient slowdown window the fault plan has open.

// specScratch is the per-round working state of the speculation pass,
// allocated once so speculation adds no steady-state allocations.
type specScratch struct {
	w    []int     // words moved this round, per small machine
	cost []float64 // effective per-word cost this round (slowCost)
	ord  []int     // machines with traffic, slowest shard first
	part []int     // partner candidates, fastest first
}

// applyPlacement resolves the configured policy (nil = Cap), derives the
// per-machine placement weights from the profile-derived capacity shares
// and per-word costs, and validates them.
func (c *Cluster) applyPlacement(pol sched.Policy) error {
	if pol == nil {
		pol = sched.Cap{}
	}
	c.placement = pol
	shares, err := pol.Shares(sched.Machines{
		CapShare: slices.Clone(c.capShare),
		Cost:     slices.Clone(c.cost[1:]),
	})
	if err != nil {
		return fmt.Errorf("mpc: placement %s: %w", pol.Name(), err)
	}
	if len(shares) != c.k {
		return fmt.Errorf("mpc: placement %s returned %d shares, cluster has K=%d machines", pol.Name(), len(shares), c.k)
	}
	for i, s := range shares {
		if !(s > 0) || math.IsInf(s, 0) || math.IsNaN(s) {
			return fmt.Errorf("mpc: placement %s: share[%d] = %v, want a positive finite weight", pol.Name(), i, s)
		}
	}
	c.placeShare = shares
	c.specR = pol.Speculation()
	if op, ok := pol.(sched.OnlinePolicy); ok {
		// The adaptive path: one estimator per cluster, seeded with the
		// declared profile and fed every exchange record by charge.
		// c.placeShare is the policy's own fresh slice, so the round barrier
		// may overwrite it in place.
		est, err := op.NewEstimator(sched.Machines{
			CapShare: slices.Clone(c.capShare),
			Cost:     slices.Clone(c.cost[1:]),
		})
		if err != nil {
			return fmt.Errorf("mpc: placement %s: %w", pol.Name(), err)
		}
		c.est = est
	}
	if c.specR > c.k/2 {
		// Every victim needs a distinct partner outside the slow set. The
		// policy (and any spec tag derived from it) records the requested
		// dial; SpeculationR reports what this cluster actually runs, and
		// hetrun prints it when the two differ.
		c.specR = c.k / 2
	}
	if c.specR > 0 {
		c.spec = &specScratch{
			w:    make([]int, c.k),
			cost: make([]float64, c.k),
			ord:  make([]int, 0, c.k),
			part: make([]int, 0, c.k),
		}
	}
	return nil
}

// speculate applies speculate:R to one round's charges, rewriting the small
// machines' entries of busy (the round's Busy vector, slot 1+i for machine
// i) in place before settle adds them up. The model (DESIGN.md §8):
//
//   - each small machine's shard is the w_i words it moved this round, at
//     its effective per-word cost (profile speed/bandwidth × any transient
//     slowdown window); its plain charge is busy[1+i] = w_i · cost_i;
//   - the R slowest shards (largest charge; ties to the lower index) are the
//     victims. Victim r is paired with the r-th fastest machine outside the
//     victim set (smallest cost, then least own traffic, then lower index)
//     — the idle fast machines;
//   - the partner re-executes the victim's shard after its own: its copy
//     finishes at t_p + w_v·cost_p. The copy is launched only when that
//     beats the victim (first-copy-wins is decided by the scheduler, which
//     knows the costs); a launched copy charges the mirrored words to
//     Stats.SpeculationWords and the partner's busy time, and the victim is
//     cancelled the moment the copy wins, so both sides of the pair finish
//     at the copy's time.
//
// The large machine is the paper's coordinator and is never speculated on.
// The pass runs serially in deterministic order, so speculation — like the
// rest of the makespan accounting — is bit-identical under any GOMAXPROCS.
// It returns the mirrored words the launched copies cost.
func (c *Cluster) speculate(send, recv []int, busy []float64) (specWords int64) {
	st, eff := c.spec, busy[1:]
	st.ord = st.ord[:0]
	for i := 0; i < c.k; i++ {
		st.w[i] = send[1+i] + recv[1+i]
		st.cost[i] = c.slowCost(1 + i)
		if st.w[i] > 0 {
			st.ord = append(st.ord, i)
		}
	}
	slices.SortFunc(st.ord, func(a, b int) int { return cmp.Or(cmp.Compare(eff[b], eff[a]), a-b) })
	victims := min(c.specR, len(st.ord))
	if victims == 0 {
		return 0
	}
	st.part = st.part[:0]
	for i := 0; i < c.k; i++ {
		if !slices.Contains(st.ord[:victims], i) {
			st.part = append(st.part, i)
		}
	}
	slices.SortFunc(st.part, func(a, b int) int {
		return cmp.Or(cmp.Compare(st.cost[a], st.cost[b]), cmp.Compare(eff[a], eff[b]), a-b)
	})
	for r := 0; r < victims && r < len(st.part); r++ {
		v, p := st.ord[r], st.part[r]
		alt := eff[p] + float64(st.w[v])*st.cost[p]
		if alt >= eff[v] {
			continue // the copy cannot win: not launched, nothing charged
		}
		specWords += int64(st.w[v])
		eff[p] = alt // partner works its shard, then the copy
		eff[v] = alt // victim cancelled when the copy wins
	}
	return specWords
}
