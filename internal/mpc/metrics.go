package mpc

import (
	"hetmpc/internal/metrics"
	"hetmpc/internal/trace"
)

// clusterMetrics is the engine's prebound instrument set (Config.Metrics,
// DESIGN.md §12). Every hot-path instrument is resolved once at New; the
// two per-phase counters, whose label is only known at the barrier, are
// re-resolved when the span path changes, so a metered round in a steady
// phase performs no registry lookups. A nil *clusterMetrics — the
// Config.Metrics == nil path — is never touched: charge skips meter, so the
// unmetered engine pays one nil check per contribution (the same contract
// as the nil trace collector, pinned by the top-level golden and
// AllocsPerRun tests).
//
// Conservation by construction: meter folds the very ledger record Stats
// and the trace collector fold (ledger.go), so every counter reconciles
// with its Stats field and with the trace timeline exactly; the per-link
// wire_link_write_bytes_total counters (wire.InstrumentLink) sum to
// Stats.WireBytes on successful runs. TestLedgerSinksAgree and the
// conservation tests assert it.
//
// Counters are cumulative for the registry's lifetime and are deliberately
// NOT rebased by ResetStats: one registry may serve several clusters (an
// experiment sweep), and a reset of one cluster must not erase the others'
// history. Reconciliation against Stats therefore uses a fresh cluster (or
// snapshot deltas).
type clusterMetrics struct {
	reg *metrics.Registry

	rounds    *metrics.Counter   // mpc_rounds_total: exchange rounds (incl. silent)
	silent    *metrics.Counter   // mpc_silent_rounds_total: barrier-only rounds
	messages  *metrics.Counter   // mpc_messages_total
	words     *metrics.Counter   // mpc_words_total: == Stats.TotalWords growth
	specWords *metrics.Counter   // mpc_speculation_words_total
	makespan  *metrics.Gauge     // mpc_makespan: live Stats.Makespan
	roundTime *metrics.Histogram // mpc_round_time: every contribution's makespan (rounds, barriers, recoveries)
	inbox     *metrics.Histogram // mpc_inbox_messages: per machine per round, delivered messages

	// Per-machine dimensions, indexed by slot (0 = large, 1+i = small i).
	sendWords []*metrics.Counter // mpc_send_words_total{machine}
	recvWords []*metrics.Counter // mpc_recv_words_total{machine}
	busyTime  []*metrics.Gauge   // mpc_busy_time{machine}: cumulative simulated busy time

	// Per-phase dimension, bound to the span path of the last record.
	phase       string
	phaseWords  *metrics.Counter // mpc_phase_words_total{phase}
	phaseRounds *metrics.Counter // mpc_phase_rounds_total{phase}: exchange rounds (incl. silent)

	// Fault engine (recover.go).
	checkpoints      *metrics.Counter   // fault_checkpoints_total
	replicationWords *metrics.Counter   // fault_replication_words_total
	recoveryRounds   *metrics.Counter   // fault_recovery_rounds_total
	replayRounds     *metrics.Counter   // fault_replay_rounds_total: replayed work rounds
	crashes          []*metrics.Counter // fault_crashes_total{machine}, per small machine

	// Wire transport (wirenet.go); per destination slot.
	encodeNs *metrics.Counter   // wire_encode_ns_total: serial frame-encode time
	decodeNs []*metrics.Counter // wire_decode_ns_total{link}: the drain's time on that link
	frames   []*metrics.Counter // wire_link_frames_total{link}: messages framed per link
}

// newClusterMetrics prebinds the engine instruments (nil reg = nil, the
// zero-overhead path).
func newClusterMetrics(reg *metrics.Registry, k int) *clusterMetrics {
	if reg == nil {
		return nil
	}
	mx := &clusterMetrics{
		reg:              reg,
		rounds:           reg.Counter("mpc_rounds_total"),
		silent:           reg.Counter("mpc_silent_rounds_total"),
		messages:         reg.Counter("mpc_messages_total"),
		words:            reg.Counter("mpc_words_total"),
		specWords:        reg.Counter("mpc_speculation_words_total"),
		makespan:         reg.Gauge("mpc_makespan"),
		roundTime:        reg.Histogram("mpc_round_time", metrics.ExpBuckets(1, 2, 20)),
		inbox:            reg.Histogram("mpc_inbox_messages", metrics.ExpBuckets(1, 4, 12)),
		sendWords:        make([]*metrics.Counter, k+1),
		recvWords:        make([]*metrics.Counter, k+1),
		busyTime:         make([]*metrics.Gauge, k+1),
		checkpoints:      reg.Counter("fault_checkpoints_total"),
		replicationWords: reg.Counter("fault_replication_words_total"),
		recoveryRounds:   reg.Counter("fault_recovery_rounds_total"),
		replayRounds:     reg.Counter("fault_replay_rounds_total"),
		crashes:          make([]*metrics.Counter, k),
		encodeNs:         reg.Counter("wire_encode_ns_total"),
		decodeNs:         make([]*metrics.Counter, k+1),
		frames:           make([]*metrics.Counter, k+1),
	}
	for slot := 0; slot <= k; slot++ {
		name := trace.MachineName(trace.SlotMachine(slot))
		mx.sendWords[slot] = reg.Counter("mpc_send_words_total", "machine", name)
		mx.recvWords[slot] = reg.Counter("mpc_recv_words_total", "machine", name)
		mx.busyTime[slot] = reg.Gauge("mpc_busy_time", "machine", name)
		mx.decodeNs[slot] = reg.Counter("wire_decode_ns_total", "link", name)
		mx.frames[slot] = reg.Counter("wire_link_frames_total", "link", name)
	}
	for i := 0; i < k; i++ {
		mx.crashes[i] = reg.Counter("fault_crashes_total", "machine", trace.MachineName(i))
	}
	return mx
}

// Metrics returns the cluster's metrics registry (Config.Metrics), nil when
// the run is unmetered.
func (c *Cluster) Metrics() *metrics.Registry { return c.cfg.Metrics }

// meter folds one ledger record into the registry. It runs inside charge,
// after the Stats fold, so the gauges publish the post-contribution values.
// Every instrument reads the record, with one exception: the delivered
// message count per inbox is not part of a trace.Round, so the inbox
// histogram reads the exchange's live receive counters (valid until
// Exchange returns; barriers and recoveries carry no RecvWords and skip it).
func (c *Cluster) meter(r trace.Round) {
	mx := c.mx
	mx.roundTime.Observe(r.Makespan)
	mx.makespan.Set(c.stats.Makespan)
	if mx.phaseRounds == nil || mx.phase != r.Phase {
		mx.phase = r.Phase
		mx.phaseWords = mx.reg.Counter("mpc_phase_words_total", "phase", r.Phase)
		mx.phaseRounds = mx.reg.Counter("mpc_phase_rounds_total", "phase", r.Phase)
	}
	if r.Kind == trace.KindExchange {
		mx.rounds.Inc()
		mx.phaseRounds.Inc()
		if r.Messages == 0 {
			mx.silent.Inc()
		}
	}
	mx.messages.Add(int64(r.Messages))
	mx.words.Add(r.Words)
	mx.phaseWords.Add(r.Words)
	mx.specWords.Add(r.SpecWords)
	mx.checkpoints.Add(int64(r.Checkpoints))
	mx.replicationWords.Add(r.ReplicationWords)
	mx.recoveryRounds.Add(int64(r.RecoveryRounds))
	mx.replayRounds.Add(int64(r.ReplayRounds))
	if r.Crashes > 0 {
		mx.crashes[r.Victim].Add(int64(r.Crashes))
	}
	for slot, w := range r.SendWords {
		if w > 0 {
			mx.sendWords[slot].Add(int64(w))
		}
	}
	for slot, w := range r.RecvWords {
		if w > 0 {
			mx.recvWords[slot].Add(int64(w))
		}
		if n := c.exch.recvCount[slot]; n > 0 {
			mx.inbox.Observe(float64(n))
		}
	}
	for slot, t := range r.Busy {
		if t != 0 {
			mx.busyTime[slot].Set(c.busy[slot])
		}
	}
}
