package mpc

import (
	"fmt"

	"hetmpc/internal/trace"
)

// The exchange engine routes one synchronous round as a batched plan instead
// of per-message appends:
//
//  1. plan (per sender): stamp From, validate destinations, and build
//     per-sender destination entries — (destination, count, words) in
//     first-seen order — plus the per-message flat-offset table (entry
//     index, offset within the entry's window), so capacity accounting
//     reads running counters and delivery is a pure scatter;
//  2. layout (sequential, O(#entries + K)): assign every entry its absolute
//     start offset within the flat inbox, in the fixed sender order (large
//     machine first, then small machines 0..K-1), and check the receive
//     caps against the per-destination word totals;
//  3. deliver (per sender): a single offset-indexed copy loop into the
//     flat inbox — flat[entry.start+msgOff[j]] = msgs[j] — with no map
//     lookups or cursor mutation on the hot path.
//
// After delivery a stats pass reads the same counters to price the round:
// each machine is charged w_i·(1/Speed_i + 1/Bandwidth_i) for the
// words it moved, the round costs the barrier latency plus the busiest
// machine's charge, and capacities are per machine under the cluster Profile
// (violations name the machine and its cap). The result is one ledger record
// handed to charge (ledger.go), the only place the round is accounted.
//
// The whole round runs on the calling goroutine: the engine is a few percent
// of a run's CPU, and fanning plan and deliver out over senders bought
// nothing measurable on any perf/ workload. Delivery order is "large
// machine's messages first, then small senders in increasing id, each
// sender's messages in submission order", and validation errors are
// reported in that same order. Scratch state (plans, counters, offset
// tables) lives on the Cluster and is reused across rounds, so a
// steady-state round performs exactly two allocations: the flat message
// array and the top-level inbox index, both of which are handed to the
// caller.
//
// Exchange is not safe for concurrent use; the model is synchronous rounds.

// destEntry is one (sender, destination) routing entry of the round plan.
type destEntry struct {
	slot  int // destination slot: 0 = large machine, 1+i = small machine i
	count int // messages from this sender to this destination
	words int // words from this sender to this destination
	start int // layout phase: offset of the entry's first message — relative
	// to the destination inbox while counting, absolute in the flat
	// array once the slot bases are folded in
}

// senderPlan is one sender's routing plan for the round.
type senderPlan struct {
	from    int
	msgs    []Msg
	words   int // total words sent (send-cap accounting)
	entries []destEntry
	entIdx  []int32 // per message: index into entries
	msgOff  []int32 // per message: offset within its entry's inbox window
	err     error   // first validation/cap error of this sender
}

// exchScratch holds the pooled per-round routing state.
type exchScratch struct {
	plans     []senderPlan
	recvCount []int // per destination slot, messages received
	recvWords []int // per destination slot, words received
	sendWords []int // per sender slot, words sent (makespan accounting)
	slotBase  []int // per destination slot, base offset in the flat inbox
	// slotOf is planSender's destination slot → 1+entry index map, zero
	// between senders.
	slotOf []int32

	// busy is the per-slot time charged by the makespan contribution being
	// priced — written by whichever scan prices it (the exchange scan, the
	// checkpoint barrier, a recovery) and read through the ledger record.
	busy []float64
}

func newExchScratch(k int) *exchScratch {
	return &exchScratch{
		recvCount: make([]int, k+1),
		recvWords: make([]int, k+1),
		sendWords: make([]int, k+1),
		slotBase:  make([]int, k+1),
		slotOf:    make([]int32, k+1),
		busy:      make([]float64, k+1),
	}
}

// destSlot maps a message destination to its slot, validating it.
func (c *Cluster) destSlot(from, to int) (int, error) {
	if to == Large {
		if !c.HasLarge() {
			return 0, fmt.Errorf("mpc: machine %d sent to the large machine but the cluster has none", from)
		}
		return 0, nil
	}
	if to < 0 || to >= c.k {
		return 0, fmt.Errorf("mpc: machine %d sent to invalid machine %d", from, to)
	}
	return 1 + to, nil
}

// Exchange executes one synchronous communication round. outs[i] holds the
// messages sent by small machine i (outs may be nil or shorter than K for
// rounds where few machines speak); outLarge holds the large machine's
// messages. It returns the delivered inboxes. Send and receive volumes are
// checked against the per-machine capacities; violations wrap ErrCapacity
// and deliver nothing.
func (c *Cluster) Exchange(outs [][]Msg, outLarge []Msg) (ins [][]Msg, inLarge []Msg, err error) {
	if c.stats.Rounds >= c.cfg.MaxRounds {
		return nil, nil, fmt.Errorf("%w: %d rounds", ErrRounds, c.stats.Rounds)
	}
	if c.wn != nil && c.wn.broken != nil {
		// A transport that failed mid-round stays failed: every later round
		// reports the original link failure instead of limping on a cluster
		// whose machines disagree about what was delivered.
		return nil, nil, c.wn.broken
	}
	c.stats.Rounds++
	ins = make([][]Msg, c.k)

	// Assemble the sender list in the deterministic delivery order. Plans
	// are recycled in place so their entry slices keep their capacity.
	sc := c.exch
	plans := sc.plans[:0]
	totalMsgs := 0
	addPlan := func(from int, msgs []Msg) {
		if len(plans) < cap(plans) {
			plans = plans[:len(plans)+1]
		} else {
			plans = append(plans, senderPlan{})
		}
		p := &plans[len(plans)-1]
		p.from, p.msgs = from, msgs
		totalMsgs += len(msgs)
	}
	if len(outLarge) > 0 {
		if !c.HasLarge() {
			return nil, nil, fmt.Errorf("mpc: outLarge non-empty but the cluster has no large machine: %w", ErrNeedsLarge)
		}
		addPlan(Large, outLarge)
	}
	// outs may be shorter than K (machines that do not speak), but an entry
	// at or beyond K is a sender the cluster does not have: refusing it
	// loudly beats the silent drop it used to be.
	for i := c.k; i < len(outs); i++ {
		if len(outs[i]) > 0 {
			return nil, nil, fmt.Errorf("%w: outs[%d] holds %d messages but the cluster has K=%d small machines",
				ErrUnknownSender, i, len(outs[i]), c.k)
		}
	}
	for i := 0; i < len(outs) && i < c.k; i++ {
		if len(outs[i]) == 0 {
			continue
		}
		addPlan(i, outs[i])
	}
	sc.plans = plans
	if len(plans) == 0 {
		// A silent round advanced the clock and still pays the barrier, so
		// it is a ledger record like any other.
		c.charge(trace.Round{
			Kind:     trace.KindExchange,
			Makespan: c.latency,
			Argmax:   trace.None,
			Victim:   trace.None,
		})
		c.postRoundFaults()
		return ins, nil, nil
	}
	defer func() {
		// Reset only the touched counters, so the reset cost tracks traffic.
		for s := range plans {
			for _, e := range plans[s].entries {
				sc.recvCount[e.slot] = 0
				sc.recvWords[e.slot] = 0
			}
			plans[s].entries = plans[s].entries[:0]
			plans[s].msgs = nil
			plans[s].err = nil
		}
	}()

	// Phase 1: stamp, validate and count, sender by sender; the first error
	// in sender order is the one reported.
	for s := range plans {
		if c.planSender(&plans[s]); plans[s].err != nil {
			return nil, nil, plans[s].err
		}
	}

	// Phase 2: offsets and receive-cap accounting, in sender order (offsets
	// relative to the destination inbox here, absolutized with the slot
	// bases below).
	for s := range plans {
		p := &plans[s]
		for ei := range p.entries {
			e := &p.entries[ei]
			e.start = sc.recvCount[e.slot]
			sc.recvCount[e.slot] += e.count
			sc.recvWords[e.slot] += e.words
		}
	}
	if sc.recvWords[0] > c.largeCap {
		return nil, nil, fmt.Errorf("%w: large machine received %d > cap %d words in round %d",
			ErrCapacity, sc.recvWords[0], c.largeCap, c.stats.Rounds)
	}
	for i := 0; i < c.k; i++ {
		if sc.recvWords[1+i] > c.smallCaps[i] {
			return nil, nil, fmt.Errorf("%w: machine %d received %d > cap %d words in round %d",
				ErrCapacity, i, sc.recvWords[1+i], c.smallCaps[i], c.stats.Rounds)
		}
	}

	// Phase 3: carve the flat inbox array into per-destination windows. The
	// three-index slices keep caller-side appends from clobbering neighbors.
	base := 0
	for slot := 0; slot <= c.k; slot++ {
		sc.slotBase[slot] = base
		base += sc.recvCount[slot]
	}
	flat := make([]Msg, totalMsgs)
	if n := sc.recvCount[0]; n > 0 {
		inLarge = flat[0:n:n]
	}
	for i := 0; i < c.k; i++ {
		if n := sc.recvCount[1+i]; n > 0 {
			b := sc.slotBase[1+i]
			ins[i] = flat[b : b+n : b+n]
		}
	}
	for s := range plans {
		p := &plans[s]
		for ei := range p.entries {
			e := &p.entries[ei]
			e.start += sc.slotBase[e.slot]
		}
	}

	// Phase 4: deliver at the precomputed offsets. Under a transport the
	// messages are framed through the per-machine links (wirenet.go) in the
	// same deterministic order the offsets were assigned in, so the inbox
	// is bit-identical to the shared-memory copy.
	if c.wn != nil && c.wn.active() {
		if err := c.wn.open(c.k + 1); err != nil {
			return nil, nil, err
		}
	}
	var wireBytes int64
	if c.wn != nil && c.wn.active() {
		var werr error
		wireBytes, werr = c.deliverWire(flat)
		// Charged here, not through the ledger: a round whose transport
		// failed is never priced, but the bytes it wrote were measured.
		c.stats.WireBytes += wireBytes
		if werr != nil {
			return nil, nil, werr
		}
	} else {
		for s := range plans {
			sc.scatterSender(&plans[s], flat)
		}
	}

	// The running maxima and the round's word total, from the running
	// counters (no message re-walk).
	maxRecv := sc.recvWords[0]
	var totalWords int64
	for s := range plans {
		p := &plans[s]
		sc.sendWords[senderSlot(p.from)] = p.words
		totalWords += int64(p.words)
		if p.words > c.stats.MaxSendWords {
			c.stats.MaxSendWords = p.words
		}
		for _, e := range p.entries {
			if w := sc.recvWords[e.slot]; w > maxRecv {
				maxRecv = w
			}
		}
	}
	if maxRecv > c.stats.MaxRecvWords {
		c.stats.MaxRecvWords = maxRecv
	}

	// Makespan: the round takes the barrier latency plus the busiest
	// machine's time, w_i · (1/Speed_i + 1/Bandwidth_i) over the words it
	// moved (scaled by any transient slowdown window of the fault plan).
	// The scan runs serially in slot order, so the float accumulation is
	// deterministic under any GOMAXPROCS, and it writes each slot's charge
	// to sc.busy — the record's Busy vector. Under a speculate:R placement
	// policy the scan additionally mirrors the R slowest shards onto idle
	// fast machines, first-copy-wins (placement.go, DESIGN.md §8); the
	// default path below is untouched, so cap and throughput runs are
	// bit-identical to the pre-policy accounting.
	var roundMax float64
	argSlot := -1 // slot that set roundMax; -1 = none (all-zero words)
	var specWords int64
	if c.specR > 0 {
		roundMax, argSlot, specWords = c.speculateRoundMax(sc.sendWords, sc.recvWords)
	} else {
		for slot := 0; slot <= c.k; slot++ {
			t := 0.0
			if w := sc.sendWords[slot] + sc.recvWords[slot]; w != 0 {
				t = float64(w) * c.slowCost(slot)
				c.busy[slot] += t
				if t > roundMax {
					roundMax, argSlot = t, slot
				}
			}
			sc.busy[slot] = t
		}
	}
	// The per-slot vectors are views of the round scratch, zeroed right
	// below and by the deferred reset.
	c.charge(trace.Round{
		Kind:      trace.KindExchange,
		Messages:  totalMsgs,
		Words:     totalWords,
		WireBytes: wireBytes,
		MaxTime:   roundMax,
		Makespan:  c.latency + roundMax,
		Argmax:    trace.SlotMachine(argSlot),
		Victim:    trace.None,
		SpecWords: specWords,
		SendWords: sc.sendWords,
		RecvWords: sc.recvWords,
		Busy:      sc.busy,
	})
	for s := range plans {
		sc.sendWords[senderSlot(plans[s].from)] = 0
	}
	c.postRoundFaults()
	return ins, inLarge, nil
}

// senderSlot maps a (validated) machine id to its slot index.
func senderSlot(from int) int {
	if from == Large {
		return 0
	}
	return 1 + from
}

// planSender stamps From, validates destinations, builds the sender's
// destination entries and per-message offset table, and checks its send
// cap. The scratch's slotOf map (destination slot → 1+entry index) is zero
// on entry and re-zeroed before returning.
func (c *Cluster) planSender(p *senderPlan) {
	slotOf := c.exch.slotOf
	n := len(p.msgs)
	if cap(p.entIdx) < n {
		p.entIdx = make([]int32, n)
		p.msgOff = make([]int32, n)
	}
	p.entIdx = p.entIdx[:n]
	p.msgOff = p.msgOff[:n]
	words := 0
	for j := range p.msgs {
		m := &p.msgs[j]
		m.From = p.from
		words += m.Words
		slot, derr := c.destSlot(p.from, m.To)
		if derr != nil {
			if p.err == nil {
				p.err = derr
			}
			p.entIdx[j], p.msgOff[j] = 0, 0
			continue
		}
		e := slotOf[slot]
		if e == 0 {
			p.entries = append(p.entries, destEntry{slot: slot})
			e = int32(len(p.entries))
			slotOf[slot] = e
		}
		ent := &p.entries[e-1]
		p.entIdx[j] = e - 1
		p.msgOff[j] = int32(ent.count)
		ent.count++
		ent.words += m.Words
	}
	p.words = words
	if p.err == nil && words > c.capOf(p.from) {
		p.err = fmt.Errorf("%w: machine %d sent %d > cap %d words in round %d",
			ErrCapacity, p.from, words, c.capOf(p.from), c.stats.Rounds)
	}
	for _, ent := range p.entries {
		slotOf[ent.slot] = 0
	}
}

// scatterSender copies one sender's messages into the flat inbox array at
// the offsets fixed during planning and layout: a single offset-indexed
// copy loop, unrolled 4-wide. No map lookups and no cursor mutation — the
// entry starts are absolute and the per-message offsets were assigned in
// the plan phase — so the loop body is pure loads and stores.
//
//hetlint:zeroalloc deliver inner loop; pinned by TestNilMetricsZeroAlloc and BenchmarkExchangeNilMetrics
func (sc *exchScratch) scatterSender(p *senderPlan, flat []Msg) {
	msgs := p.msgs
	ents := p.entries
	entIdx := p.entIdx[:len(msgs)]
	msgOff := p.msgOff[:len(msgs)]
	j := 0
	for ; j+4 <= len(msgs); j += 4 {
		e0, e1, e2, e3 := entIdx[j], entIdx[j+1], entIdx[j+2], entIdx[j+3]
		flat[ents[e0].start+int(msgOff[j])] = msgs[j]
		flat[ents[e1].start+int(msgOff[j+1])] = msgs[j+1]
		flat[ents[e2].start+int(msgOff[j+2])] = msgs[j+2]
		flat[ents[e3].start+int(msgOff[j+3])] = msgs[j+3]
	}
	for ; j < len(msgs); j++ {
		flat[ents[entIdx[j]].start+int(msgOff[j])] = msgs[j]
	}
}
