package mpc

import (
	"fmt"

	"hetmpc/internal/trace"
)

// The exchange engine delivers one synchronous round as a counting sort of
// its messages by destination:
//
//  1. count: walk the senders in delivery order (large machine first, then
//     small machines 0..K-1), stamp From, validate every message, bump the
//     destination's message and word counters and check the sender's send
//     cap; the first error in sender order is the one returned;
//  2. window (one O(K) loop): check the receive caps against the
//     per-destination word totals, take the receive maximum and turn the
//     counts into each destination's window of the flat inbox;
//  3. place: walk the same senders again and copy every message to its
//     destination's cursor — slotBase, advanced as it fills — or, under a
//     transport, frame the same sender list through the per-machine links
//     (wirenet.go).
//
// Both walks visit the messages in the same order, so each inbox holds
// "large machine's messages first, then small senders in increasing id, each
// sender's messages in submission order". Messages are not grouped per
// (sender, destination): on the perf/ workloads 98.0 % / 97.9 % / 97.6 %
// (table1 / wire / hetero; 67.3 % on scale) of messages are the only one
// their sender has for that destination, so a grouping table is one more
// entry per message that nothing reads.
//
// After delivery a stats pass reads the same counters to price the round:
// each machine is charged w_i·(1/Speed_i + 1/Bandwidth_i) for the
// words it moved, the round costs the barrier latency plus the busiest
// machine's charge, and capacities are per machine under the cluster Profile
// (violations name the machine and its cap). The result is one ledger record
// handed to charge (ledger.go), the only place the round is accounted.
//
// The whole round runs on the calling goroutine: the engine is a few percent
// of a run's CPU, and fanning it out over senders bought nothing measurable
// on any perf/ workload. Scratch state (sender list, counters, cursors)
// lives on the Cluster and is reused across rounds, so a steady-state round
// performs exactly two allocations: the flat message array and the top-level
// inbox index, both of which are handed to the caller.
//
// Exchange is not safe for concurrent use; the model is synchronous rounds.

// sender is one speaking machine of the round, in delivery order.
type sender struct {
	from int
	msgs []Msg
}

// exchScratch holds the pooled per-round routing state.
type exchScratch struct {
	senders   []sender
	recvCount []int // per destination slot, messages received
	recvWords []int // per destination slot, words received
	sendWords []int // per sender slot, words sent
	slotBase  []int // per destination slot, its window's start in the flat inbox; place's cursor

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

	// Assemble the sender list in the deterministic delivery order.
	sc := c.exch
	senders := sc.senders[:0]
	totalMsgs := 0
	if len(outLarge) > 0 {
		if !c.HasLarge() {
			return nil, nil, fmt.Errorf("mpc: outLarge non-empty but the cluster has no large machine: %w", ErrNeedsLarge)
		}
		senders = append(senders, sender{Large, outLarge})
		totalMsgs += len(outLarge)
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
		if len(outs[i]) > 0 {
			senders = append(senders, sender{i, outs[i]})
			totalMsgs += len(outs[i])
		}
	}
	sc.senders = senders
	if len(senders) == 0 {
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
		clear(senders) // the callers' out-lists are not ours to keep alive
		clear(sc.recvCount)
		clear(sc.recvWords)
		clear(sc.sendWords)
	}()

	// Pass 1: count, sender by sender; the first error in sender order is
	// the one reported.
	var totalWords int64
	maxSend := 0
	for _, p := range senders {
		w, err := c.count(p)
		if err != nil {
			return nil, nil, err
		}
		sc.sendWords[machineSlot(p.from)] = w
		totalWords += int64(w)
		maxSend = max(maxSend, w)
	}

	// Window: receive caps, the receive maximum, and each destination's
	// window of the flat inbox, which slotBase then points at. The
	// three-index slices keep caller-side appends from clobbering neighbors.
	if sc.recvWords[0] > c.largeCap {
		return nil, nil, fmt.Errorf("%w: large machine received %d > cap %d words in round %d",
			ErrCapacity, sc.recvWords[0], c.largeCap, c.stats.Rounds)
	}
	flat := make([]Msg, totalMsgs)
	maxRecv := sc.recvWords[0]
	base := sc.recvCount[0]
	if base > 0 {
		inLarge = flat[0:base:base]
	}
	sc.slotBase[0] = 0
	for i := 0; i < c.k; i++ {
		w := sc.recvWords[1+i]
		if w > c.smallCaps[i] {
			return nil, nil, fmt.Errorf("%w: machine %d received %d > cap %d words in round %d",
				ErrCapacity, i, w, c.smallCaps[i], c.stats.Rounds)
		}
		maxRecv = max(maxRecv, w)
		sc.slotBase[1+i] = base
		if n := sc.recvCount[1+i]; n > 0 {
			ins[i] = flat[base : base+n : base+n]
			base += n
		}
	}

	// Pass 2: place. Under a transport the messages are framed through the
	// per-machine links (wirenet.go) in the same sender order the windows
	// were counted in, so the inbox is bit-identical to the shared-memory
	// copy.
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
		sc.place(flat)
	}
	c.stats.MaxSendWords = max(c.stats.MaxSendWords, maxSend)
	c.stats.MaxRecvWords = max(c.stats.MaxRecvWords, maxRecv)

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
	// The per-slot vectors are views of the round scratch, zeroed by the
	// deferred reset.
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
	c.postRoundFaults()
	return ins, inLarge, nil
}

// machineSlot maps a (validated) machine id, sender or destination, to its
// slot index.
func machineSlot(id int) int {
	if id == Large {
		return 0
	}
	return 1 + id
}

// count is pass 1 for one sender: it stamps From, validates every message,
// bumps the destination's receive counters, and returns the sender's word
// total after checking it against the send cap. A negative size is refused
// before it is counted — it would cancel an oversized message out of both
// caps.
func (c *Cluster) count(p sender) (int, error) {
	sc := c.exch
	words := 0
	for j := range p.msgs {
		m := &p.msgs[j]
		m.From = p.from
		if m.Words < 0 {
			return 0, fmt.Errorf("%w: machine %d message %d has negative size %d words in round %d",
				ErrCapacity, p.from, j, m.Words, c.stats.Rounds)
		}
		slot, err := c.destSlot(p.from, m.To)
		if err != nil {
			return 0, err
		}
		sc.recvCount[slot]++
		sc.recvWords[slot] += m.Words
		words += m.Words
	}
	if words > c.capOf(p.from) {
		return 0, fmt.Errorf("%w: machine %d sent %d > cap %d words in round %d",
			ErrCapacity, p.from, words, c.capOf(p.from), c.stats.Rounds)
	}
	return words, nil
}

// place is pass 2 of the shared-memory path: every message is copied to its
// destination's cursor, which starts at the window base and advances as the
// window fills.
//
//hetlint:zeroalloc deliver inner loop; pinned by TestNilMetricsZeroAlloc and BenchmarkExchangeNilMetrics
func (sc *exchScratch) place(flat []Msg) {
	cursor := sc.slotBase
	for _, p := range sc.senders {
		for j := range p.msgs {
			slot := machineSlot(p.msgs[j].To)
			flat[cursor[slot]] = p.msgs[j]
			cursor[slot]++
		}
	}
}
