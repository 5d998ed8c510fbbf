package mpc

import (
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

// specScratch is the per-round working state of the speculation scan,
// allocated once so speculation adds no steady-state allocations.
type specScratch struct {
	w    []int     // words moved this round, per small machine
	cost []float64 // effective per-word cost this round (slowCost)
	eff  []float64 // effective round time after speculation: the small-machine tail of exchScratch.busy
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
	if _, isCap := pol.(sched.Cap); isCap {
		// The default policy must be bit-identical to the pre-policy
		// simulator: reuse the capacity shares (same backing floats) and the
		// legacy integer-capacity uniformity flag for the even-split path.
		c.placeShare = c.capShare
		c.uniformPlace = c.uniformCaps
		c.specR = 0
		return nil
	}
	shares, err := pol.Shares(sched.Machines{
		CapShare: slices.Clone(c.capShare),
		InvCost:  slices.Clone(c.invCost[1:]),
	})
	if err != nil {
		return fmt.Errorf("mpc: placement %s: %w", pol.Name(), err)
	}
	if len(shares) != c.k {
		return fmt.Errorf("mpc: placement %s returned %d shares, cluster has K=%d machines", pol.Name(), len(shares), c.k)
	}
	uniform := true
	for i, s := range shares {
		if !(s > 0) || math.IsInf(s, 0) || math.IsNaN(s) {
			return fmt.Errorf("mpc: placement %s: share[%d] = %v, want a positive finite weight", pol.Name(), i, s)
		}
		if s != shares[0] {
			uniform = false
		}
	}
	c.placeShare = shares
	c.uniformPlace = uniform
	c.specR = pol.Speculation()
	if op, ok := pol.(sched.OnlinePolicy); ok {
		// The adaptive path: one estimator per cluster, seeded with the
		// declared profile and fed every exchange record by charge.
		// c.placeShare is the policy's own fresh slice here (never the
		// capShare backing — Cap returned above), so the round barrier may
		// overwrite it in place.
		est, err := op.NewEstimator(sched.Machines{
			CapShare: slices.Clone(c.capShare),
			InvCost:  slices.Clone(c.invCost[1:]),
		})
		if err != nil {
			return fmt.Errorf("mpc: placement %s: %w", pol.Name(), err)
		}
		c.est = est
		c.est.SetMetrics(c.cfg.Metrics)
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
			eff:  c.exch.busy[1:],
			ord:  make([]int, 0, c.k),
			part: make([]int, 0, c.k),
		}
	}
	return nil
}

// refreshPlaceShare recomputes the live placement shares from the adaptive
// estimator's current state (in place — the snapshot the next round's
// placement decisions will see) and re-derives the even-split fast-path
// flag the same way applyPlacement did.
func (c *Cluster) refreshPlaceShare() {
	c.est.Shares(c.placeShare)
	uniform := true
	for _, s := range c.placeShare {
		if s != c.placeShare[0] {
			uniform = false
			break
		}
	}
	c.uniformPlace = uniform
}

// speculateRoundMax prices one round under speculate:R, replacing the plain
// busiest-machine scan of Exchange. The model (DESIGN.md §8):
//
//   - each small machine's shard is the w_i words it moved this round, at
//     its effective per-word cost (profile speed/bandwidth × any transient
//     slowdown window), t_i = w_i · cost_i;
//   - the R slowest shards (largest t_i; ties to the lower index) are the
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
// The scan runs serially in deterministic order, so speculation — like the
// rest of the makespan accounting — is bit-identical under any GOMAXPROCS.
//
// The second return value is the slot that set the round's clock (-1 when
// no machine moved a word), feeding the record's argmax attribution; the
// third is the mirrored words the launched copies cost. Like the plain scan
// it leaves every slot's charge in exchScratch.busy — st.eff is that
// vector's small-machine tail.
func (c *Cluster) speculateRoundMax(send, recv []int) (roundMax float64, argSlot int, specWords int64) {
	argSlot = -1
	c.exch.busy[0] = 0
	if w := send[0] + recv[0]; w > 0 {
		t := float64(w) * c.slowCost(0)
		c.busy[0] += t
		c.exch.busy[0] = t
		if t > roundMax {
			roundMax, argSlot = t, 0
		}
	}
	st := c.spec
	st.ord = st.ord[:0]
	for i := 0; i < c.k; i++ {
		st.w[i] = send[1+i] + recv[1+i]
		st.cost[i] = c.slowCost(1 + i)
		st.eff[i] = float64(st.w[i]) * st.cost[i]
		if st.w[i] > 0 {
			st.ord = append(st.ord, i)
		}
	}
	slices.SortFunc(st.ord, func(a, b int) int {
		if st.eff[a] != st.eff[b] {
			if st.eff[a] > st.eff[b] {
				return -1
			}
			return 1
		}
		return a - b
	})
	victims := c.specR
	if victims > len(st.ord) {
		victims = len(st.ord)
	}
	if victims > 0 {
		inSlow := func(i int) bool {
			for _, v := range st.ord[:victims] {
				if v == i {
					return true
				}
			}
			return false
		}
		st.part = st.part[:0]
		for i := 0; i < c.k; i++ {
			if !inSlow(i) {
				st.part = append(st.part, i)
			}
		}
		slices.SortFunc(st.part, func(a, b int) int {
			if st.cost[a] != st.cost[b] {
				if st.cost[a] < st.cost[b] {
					return -1
				}
				return 1
			}
			if st.eff[a] != st.eff[b] {
				if st.eff[a] < st.eff[b] {
					return -1
				}
				return 1
			}
			return a - b
		})
		for r := 0; r < victims && r < len(st.part); r++ {
			v, p := st.ord[r], st.part[r]
			copyT := float64(st.w[v]) * st.cost[p]
			alt := st.eff[p] + copyT
			if alt >= st.eff[v] {
				continue // the copy cannot win: not launched, nothing charged
			}
			specWords += int64(st.w[v])
			st.eff[p] = alt // partner works its shard, then the copy
			st.eff[v] = alt // victim cancelled when the copy wins
		}
	}
	for i := 0; i < c.k; i++ {
		t := st.eff[i]
		if t == 0 {
			continue
		}
		c.busy[1+i] += t
		if t > roundMax {
			roundMax, argSlot = t, 1+i
		}
	}
	return roundMax, argSlot, specWords
}
