package mpc

import "hetmpc/internal/trace"

// The round ledger (DESIGN.md §5). Makespan is charged at four sites — an
// exchange round, a silent round, a checkpoint barrier, one victim's crash
// recovery (its barrier's cost on the slowest victim's record, 0 on the
// others) — and each prices its contribution into one trace.Round value
// and hands it to charge, the only place a contribution is accounted.
// Stats, the trace timeline and the metrics snapshot are folds of that one
// sequence of records, so they cannot disagree.
//
// What is not a contribution stays outside the record: Stats.Rounds and
// Stats.WireBytes advance inside Exchange before a round can fail (a
// refused or transport-broken round is counted, never priced), the running
// maxima are not additive, and c.busy is engine state that prices later
// replays, so settle (exchange.go) — or a recovery, which adds each
// victim's restore and replay in turn — advances it where each charge is
// priced.

// charge accounts one makespan contribution: it stamps the round clock and
// the open span path, folds the record into Stats and passes it to whichever
// observers are attached. r is passed by value and its per-slot vectors are
// views of the round scratch, so the bare engine allocates nothing here;
// observers copy what they keep.
func (c *Cluster) charge(r trace.Round) {
	r.Round = c.stats.Rounds
	r.Phase = c.phase
	r.Latency = c.latency
	c.stats.fold(r)
	if c.tr != nil {
		c.tr.Add(r)
	}
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.Add(r)
	}
	// Adaptive placement's snapshot-and-switch (DESIGN.md §10): the shares
	// are swapped at the barrier, so every placement decision inside a round
	// sees one vector. Only exchange rounds that moved a word carry speed
	// information; barrier traffic is the recovery protocol's.
	if c.est != nil && r.Kind == trace.KindExchange && r.Words > 0 {
		c.est.Observe(r)
		c.est.Shares(c.placeShare) // in place: the next round's snapshot
	}
}

// fold adds one ledger record to the totals (Rounds, WireBytes and the
// maxima are Exchange's, see above).
func (s *Stats) fold(r trace.Round) {
	s.Messages += int64(r.Messages)
	s.TotalWords += r.Words
	s.Makespan += r.Makespan
	s.Crashes += r.Crashes
	s.RecoveryRounds += r.RecoveryRounds
	s.Checkpoints += r.Checkpoints
	s.ReplicationWords += r.ReplicationWords
	s.SpeculationWords += r.SpecWords
}
