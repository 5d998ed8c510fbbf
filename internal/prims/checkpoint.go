package prims

import (
	"slices"

	"hetmpc/internal/mpc"
)

// Checkpointable state (DESIGN.md §7): the toolbox primitives register the
// per-machine buckets they leave behind — the edges placed by
// DistributeEdges, the buckets Sort routes and re-sorts, the combined runs
// of AggregateByKey — with the cluster's fault engine, so that checkpoint
// barriers replicate the machines' *live* state volume and crash recovery
// round-trips real data through Snapshot/Restore. On clusters without an
// active fault plan every registration is a no-op, so the fault-free path
// pays nothing.

// bucketCheckpointer adapts one machine's slice bucket inside a shared
// [][]T to fault.Checkpointer. Snapshot deep-copies the bucket (the engine
// holds snapshots across rounds while the bucket mutates); Restore writes
// the snapshot back through the shared outer slice, so the owner of the
// [][]T observes the restored state.
type bucketCheckpointer[T any] struct {
	data      [][]T
	i         int
	itemWords int
}

func (b bucketCheckpointer[T]) Snapshot() (any, int) {
	cp := slices.Clone(b.data[b.i])
	return cp, len(cp) * b.itemWords
}

func (b bucketCheckpointer[T]) Restore(data any) { b.data[b.i] = data.([]T) }

// RegisterState registers machine i's bucket data[i] (for every i) as its
// recoverable state, sized at itemWords words per item. Primitives call it
// whenever the live per-machine state changes hands; algorithms with
// additional scratch can layer their own fault.Checkpointer via
// mpc.Cluster.SetCheckpointer. Registers nothing without an active fault
// plan; a non-empty bucket at index ≥ K is refused either way
// (checkBuckets).
func RegisterState[T any](c *mpc.Cluster, data [][]T, itemWords int) error {
	if err := checkBuckets(c, "RegisterState", data); err != nil {
		return err
	}
	registerState(c, data, itemWords)
	return nil
}

// registerState is RegisterState for buckets the caller has just built or
// already passed through checkBuckets, so there is nothing left to refuse.
func registerState[T any](c *mpc.Cluster, data [][]T, itemWords int) {
	if !c.FaultsActive() {
		return
	}
	for i := 0; i < c.K() && i < len(data); i++ {
		c.SetCheckpointer(i, bucketCheckpointer[T]{data: data, i: i, itemWords: itemWords})
	}
}
