package mpc

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// buildHeavyRound returns a deterministic round with enough traffic to take
// the parallel routing path: every small machine sends to a spread of
// destinations plus the large machine, and the large machine scatters to
// everyone.
func buildHeavyRound(c *Cluster) (outs [][]Msg, outLarge []Msg) {
	k := c.K()
	outs = make([][]Msg, k)
	for i := 0; i < k; i++ {
		n := 3 + i%13
		for j := 0; j < n; j++ {
			to := (i*31 + j*17) % k
			if j == n-1 {
				to = Large
			}
			outs[i] = append(outs[i], Msg{To: to, Words: 1 + (i+j)%3, Data: fmt.Sprintf("m%d.%d", i, j)})
		}
	}
	for i := 0; i < k; i++ {
		outLarge = append(outLarge, Msg{To: i, Words: 2, Data: fmt.Sprintf("L.%d", i)})
	}
	return outs, outLarge
}

func runHeavyRound(t *testing.T) (ins [][]Msg, inLarge []Msg, st Stats) {
	t.Helper()
	c := newTest(t, Config{N: 1024, M: 8192, Seed: 5})
	outs, outLarge := buildHeavyRound(c)
	ins, inLarge, err := c.Exchange(outs, outLarge)
	if err != nil {
		t.Fatal(err)
	}
	return ins, inLarge, c.Stats()
}

// TestExchangeDeterministicAcrossGOMAXPROCS pins the batched engine's core
// guarantee: inbox contents, delivery order and stats are identical no
// matter how many workers routed the round.
func TestExchangeDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	ins1, inLarge1, st1 := runHeavyRound(t)
	runtime.GOMAXPROCS(8)
	ins8, inLarge8, st8 := runHeavyRound(t)

	if !reflect.DeepEqual(ins1, ins8) {
		t.Fatal("small-machine inboxes differ across GOMAXPROCS settings")
	}
	if !reflect.DeepEqual(inLarge1, inLarge8) {
		t.Fatal("large-machine inbox differs across GOMAXPROCS settings")
	}
	if st1 != st8 {
		t.Fatalf("stats differ: %+v vs %+v", st1, st8)
	}
}

// TestExchangeDeliveryOrder verifies the documented merge order under the
// batched plan: large machine's messages first, then small senders by id,
// each in submission order.
func TestExchangeDeliveryOrder(t *testing.T) {
	c := newTest(t, Config{N: 64, M: 256, Seed: 1})
	outs := make([][]Msg, c.K())
	outs[2] = []Msg{{To: 5, Words: 1, Data: "from2a"}, {To: 5, Words: 1, Data: "from2b"}}
	outs[0] = []Msg{{To: 5, Words: 1, Data: "from0"}}
	outLarge := []Msg{{To: 5, Words: 1, Data: "fromL"}}
	ins, _, err := c.Exchange(outs, outLarge)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(ins[5]))
	for _, m := range ins[5] {
		got = append(got, m.Data.(string))
	}
	want := []string{"fromL", "from0", "from2a", "from2b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delivery order %v, want %v", got, want)
	}

	// Interleaved: one sender alternates between two destinations, a second
	// sender and the large machine add to the first. Each inbox must come out
	// in sender-then-submission order although its messages are not adjacent
	// in any out-list.
	const a, b = 3, 6
	outs = make([][]Msg, c.K())
	for j := 0; j < 9; j++ {
		to := a
		if j%2 == 1 {
			to = b
		}
		outs[1] = append(outs[1], Msg{To: to, Words: 1, Data: fmt.Sprintf("1.%d", j)})
	}
	outs[4] = []Msg{{To: a, Words: 1, Data: "4.0"}, {To: b, Words: 1, Data: "4.1"}, {To: a, Words: 1, Data: "4.2"}}
	ins, _, err = c.Exchange(outs, []Msg{{To: a, Words: 1, Data: "L.0"}})
	if err != nil {
		t.Fatal(err)
	}
	for dst, want := range map[int][]string{
		a: {"L.0", "1.0", "1.2", "1.4", "1.6", "1.8", "4.0", "4.2"},
		b: {"1.1", "1.3", "1.5", "1.7", "4.1"},
	} {
		got := make([]string, 0, len(ins[dst]))
		for _, m := range ins[dst] {
			got = append(got, m.Data.(string))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("interleaved: inbox %d = %v, want %v", dst, got, want)
		}
	}
}

// TestExchangeRefusesNegativeWords is the regression test for the cap
// bypass: a negative size cancelled an oversized message out of the send and
// receive totals, so the pair passed both caps (and the wire would have
// framed the size as a uint32). The round must fail with ErrCapacity naming
// the sender and the message, on the shared-memory path and over a link,
// and must leave Stats untouched.
func TestExchangeRefusesNegativeWords(t *testing.T) {
	for _, name := range []string{"inproc", "pipe"} {
		c := newTest(t, Config{N: 64, M: 256, Seed: 1, Transport: transports()[name]()})
		defer c.Close()
		big := 10 * c.SmallCap()
		outs := make([][]Msg, c.K())
		outs[0] = []Msg{{To: 1, Words: big}, {To: 1, Words: -big}}
		ins, _, err := c.Exchange(outs, nil)
		if !errors.Is(err, ErrCapacity) {
			t.Fatalf("%s: err = %v, want ErrCapacity", name, err)
		}
		if !strings.Contains(err.Error(), "machine 0 message 1") {
			t.Errorf("%s: error %q does not name sender 0, message 1", name, err)
		}
		if ins != nil {
			t.Errorf("%s: a failed exchange must deliver nothing", name)
		}
		if st := c.Stats(); st.TotalWords != 0 || st.MaxSendWords != 0 || st.MaxRecvWords != 0 {
			t.Errorf("%s: refused round was accounted: %+v", name, st)
		}
	}
}

// TestExchangeLargeRecvCap exercises the receive cap of the large machine
// under the hoisted (per-destination counter) accounting.
func TestExchangeLargeRecvCap(t *testing.T) {
	c := newTest(t, Config{N: 64, M: 256, Seed: 1})
	per := c.SmallCap()
	outs := make([][]Msg, c.K())
	need := c.LargeCap()/per + 2
	if need > c.K() {
		t.Skip("not enough machines to overflow the large cap at this size")
	}
	for i := 0; i < need; i++ {
		outs[i] = []Msg{{To: Large, Words: per}}
	}
	if _, _, err := c.Exchange(outs, nil); !errors.Is(err, ErrCapacity) {
		t.Fatalf("want ErrCapacity, got %v", err)
	}
}

// TestExchangeErrorOrderDeterministic: with violations on two senders, the
// reported error is the lowest-id sender's, regardless of scheduling.
func TestExchangeErrorOrderDeterministic(t *testing.T) {
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		c := newTest(t, Config{N: 64, M: 256, Seed: 1})
		outs := make([][]Msg, c.K())
		outs[2] = []Msg{{To: 1, Words: c.SmallCap() + 1}} // send-cap violation
		outs[5] = []Msg{{To: -7, Words: 1}}               // invalid destination
		_, _, err := c.Exchange(outs, nil)
		runtime.GOMAXPROCS(prev)
		if !errors.Is(err, ErrCapacity) {
			t.Fatalf("procs=%d: want machine 2's ErrCapacity first, got %v", procs, err)
		}
	}
}

// TestExchangeInvalidDestinationStillSurfaces guards the validation moved
// into the parallel plan phase.
func TestExchangeInvalidDestinationStillSurfaces(t *testing.T) {
	c := newTest(t, Config{N: 64, M: 256, Seed: 1})
	outs := make([][]Msg, c.K())
	outs[0] = []Msg{{To: c.K(), Words: 1}}
	if _, _, err := c.Exchange(outs, nil); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
}

// TestExchangeReuseAcrossRounds runs many rounds over the same cluster to
// exercise the pooled scratch state (a reset bug would corrupt round 2+).
func TestExchangeReuseAcrossRounds(t *testing.T) {
	c := newTest(t, Config{N: 256, M: 1024, Seed: 3})
	for r := 0; r < 5; r++ {
		outs := make([][]Msg, c.K())
		for i := 0; i < c.K(); i++ {
			outs[i] = []Msg{{To: (i + r + 1) % c.K(), Words: 1, Data: r*1000 + i}}
		}
		ins, _, err := c.Exchange(outs, nil)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for d, inbox := range ins {
			for _, m := range inbox {
				if m.Data.(int) != r*1000+m.From {
					t.Fatalf("round %d: machine %d got %v from %d", r, d, m.Data, m.From)
				}
				total++
			}
		}
		if total != c.K() {
			t.Fatalf("round %d delivered %d messages, want %d", r, total, c.K())
		}
	}
	if c.Stats().Messages != int64(5*c.K()) {
		t.Fatalf("messages = %d, want %d", c.Stats().Messages, 5*c.K())
	}
}

// TestExchangeRejectsOutOfRangeSender is the regression test for the
// silent-drop bug: outs entries at or beyond K were clamped away by the
// sender loop, losing their traffic without a trace. Exchange must refuse
// them with ErrUnknownSender, naming the out-of-range sender, and deliver
// nothing — while outs that are merely longer than K but empty past the end
// stay legal.
func TestExchangeRejectsOutOfRangeSender(t *testing.T) {
	c := newTest(t, Config{N: 64, M: 256, Seed: 1})
	k := c.K()

	outs := make([][]Msg, k+3)
	outs[0] = []Msg{{To: 1, Words: 1, Data: "legit"}}
	outs[k+1] = []Msg{{To: 0, Words: 1, Data: "ghost"}}
	ins, inLarge, err := c.Exchange(outs, nil)
	if !errors.Is(err, ErrUnknownSender) {
		t.Fatalf("out-of-range sender: err = %v, want ErrUnknownSender", err)
	}
	if want := fmt.Sprintf("outs[%d]", k+1); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the out-of-range sender %s", err, want)
	}
	if ins != nil || inLarge != nil {
		t.Fatal("a failed exchange must deliver nothing")
	}

	// Empty tail entries beyond K are the documented "few machines speak"
	// shape and must not error; the in-range message must be delivered.
	outs[k+1] = nil
	ins, _, err = c.Exchange(outs, nil)
	if err != nil {
		t.Fatalf("empty tail: %v", err)
	}
	if len(ins[1]) != 1 || ins[1][0].Data != "legit" {
		t.Fatalf("in-range message lost: %+v", ins[1])
	}
}

// TestParallelNFirstErrorWins: forN must return the error of the lowest
// failing index, as the serial loop does.
func TestParallelNFirstErrorWins(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := forN(64, nil, func(i int) error {
		switch i {
		case 10:
			return errA
		case 50:
			return errB
		default:
			return nil
		}
	})
	if !errors.Is(err, errA) {
		t.Fatalf("got %v, want index 10's error", err)
	}
}

// TestForSmallErrorDeterministicAcrossGOMAXPROCS: ForSmall returns the lowest
// failing machine's error whatever the goroutine timing. Machine 0 fails only
// after machine 9 has, so a first-come rule would return machine 9's error.
func TestForSmallErrorDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		c := newTest(t, Config{N: 256, M: 2048, K: 16, Seed: 1})
		nineFailed := make(chan struct{})
		err := c.ForSmall(func(i int) error {
			switch i {
			case 0:
				select {
				case <-nineFailed:
					time.Sleep(20 * time.Millisecond) // let machine 9's failure be recorded first
				case <-time.After(10 * time.Second):
				}
			case 9:
				close(nineFailed)
			default:
				return nil
			}
			return fmt.Errorf("machine %d failed", i)
		})
		if err == nil || err.Error() != "machine 0 failed" {
			t.Fatalf("GOMAXPROCS=%d: ForSmall = %v, want machine 0's error", procs, err)
		}
	}
}

// TestParallelNStopsSchedulingAfterError: after a failure, not every
// remaining index keeps running (best-effort early abort).
func TestParallelNStopsSchedulingAfterError(t *testing.T) {
	var calls atomic.Int64
	sentinel := errors.New("boom")
	err := forN(1_000_000, nil, func(i int) error {
		calls.Add(1)
		if i == 0 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
	if calls.Load() == 1_000_000 {
		t.Fatal("no early abort: every index ran after the failure")
	}
}

// TestParallelNEdgeCases: n = 0 and n = 1 take the inline path.
func TestParallelNEdgeCases(t *testing.T) {
	if err := forN(0, nil, func(int) error { return errors.New("never") }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	ran := false
	if err := forN(1, nil, func(i int) error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("n=1: err=%v ran=%v", err, ran)
	}
}

// TestExchangeAlternatingShapesDeliver alternates two routing shapes over
// the recycled counters and cursors: every round must deliver exactly
// its own messages to their addressees.
func TestExchangeAlternatingShapesDeliver(t *testing.T) {
	c := newTest(t, Config{N: 64, M: 256, Seed: 1})
	k := c.K()
	shapes := [][][]Msg{ringRound(c, 2), nil}
	// Shape 1: reversed ring with doubled fan-out from machine 0.
	rev := make([][]Msg, k)
	for i := 0; i < k; i++ {
		rev[i] = []Msg{{To: (i + k - 1) % k, Words: 1, Data: 100 + i}}
	}
	rev[0] = append(rev[0], Msg{To: k / 2, Words: 3, Data: -1})
	shapes[1] = rev
	for round := 0; round < 8; round++ {
		outs := shapes[round%2]
		ins, _, err := c.Exchange(outs, nil)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for i := range ins {
			total += len(ins[i])
			for _, m := range ins[i] {
				if m.To != i {
					t.Fatalf("round %d: machine %d received a message addressed to %d", round, i, m.To)
				}
			}
		}
		want := k
		if round%2 == 1 {
			want = k + 1
		}
		if total != want {
			t.Fatalf("round %d delivered %d messages, want %d", round, total, want)
		}
	}
}
