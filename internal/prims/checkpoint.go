package prims

import "hetmpc/internal/mpc"

// registerState registers machine i's bucket data[i] (for every i < K) as
// its recoverable state, sized at itemWords words per item (DESIGN.md §7):
// the edges DistributeEdges places, the buckets Sort routes, the combined
// runs of AggregateByKey and PlanCombine. An item is held at the width its
// round charges it, what its holder could not rebuild: a plan's request is
// its key, its requester being the sender of the run it came in
// (requestWords). data holds at least K buckets; each checkpoint barrier
// reads their lengths when it runs, so a bucket the caller later replaces
// in data is counted at its new length. A no-op without an active fault
// plan, so the fault-free path pays nothing.
func registerState[T any](c *mpc.Cluster, data [][]T, itemWords int) {
	if !c.FaultsActive() {
		return
	}
	c.HoldState(func(i int) int { return len(data[i]) * itemWords })
}
