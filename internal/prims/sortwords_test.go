package prims

import (
	"math"
	"slices"
	"testing"

	"hetmpc/internal/mpc"
	"hetmpc/internal/trace"
	"hetmpc/internal/xrand"
)

// This file is the proof that Sort's sample, list and whole-run reply charges,
// and the keys of the per-key messages into and out of the large machine,
// are honest (DESIGN.md §1): a lossless encoding of each message whose length
// is the words the message is charged. The encoders and decoders exist only
// here; the simulator charges their length and hands the payload over as is.

// encodeKeys writes a run of sort keys and the header value head as columns.
// Word 0 is head<<3 with bit j set when column j (A, B, C) varies over the
// run; a varying column follows as one word a key, a constant one as one
// word, and an empty run as nothing.
func encodeKeys(head int64, keys []SortKey) []int64 {
	cols := [3][]int64{}
	var flags int64
	for j := range cols {
		for _, k := range keys {
			cols[j] = append(cols[j], [3]int64{k.A, k.B, k.C}[j])
		}
		if slices.ContainsFunc(cols[j], func(v int64) bool { return v != cols[j][0] }) {
			flags |= 1 << j
		} else if len(keys) > 0 {
			cols[j] = cols[j][:1]
		}
	}
	return slices.Concat([]int64{head<<3 | flags}, cols[0], cols[1], cols[2])
}

// decodeKeys reverses encodeKeys. The run's length is not on the wire: the
// receiver derives it from the header value, as the coordinator does a
// sample's from its machine's count (min(q, count)) and a machine the list's
// from its length.
func decodeKeys(words []int64, count func(head int64) int) (int64, []SortKey) {
	head, flags := words[0]>>3, words[0]&7
	n, rest := count(head), words[1:]
	var cols [3][]int64
	for j := range cols {
		w := min(1, n)
		if flags&(1<<j) != 0 {
			w = n
		}
		cols[j], rest = rest[:w], rest[w:]
	}
	keys := make([]SortKey, n)
	for i := range keys {
		at := func(col []int64) int64 { return col[min(i, len(col)-1)] }
		keys[i] = SortKey{A: at(cols[0]), B: at(cols[1]), C: at(cols[2])}
	}
	return head, keys
}

// encodeRunCuts writes the cuts of a whole run of items in the shorter of
// two forms, named by the header word: 0 then (bucket, count) pairs, or 1
// then one bucket id per item.
func encodeRunCuts(cuts []Cut, items int) []int64 {
	if cutWords*len(cuts) <= items {
		out := []int64{0}
		for _, ct := range cuts {
			out = append(out, int64(ct.Bucket), int64(ct.Count))
		}
		return out
	}
	out := []int64{1}
	for _, ct := range cuts {
		for range ct.Count {
			out = append(out, int64(ct.Bucket))
		}
	}
	return out
}

// decodeRunCuts reverses encodeRunCuts: the id form's cuts are the id
// column's runs.
func decodeRunCuts(words []int64) []Cut {
	var cuts []Cut
	if words[0] == 0 {
		for p := 1; p < len(words); p += 2 {
			cuts = append(cuts, Cut{Bucket: int32(words[p]), Count: int32(words[p+1])})
		}
		return cuts
	}
	for _, b := range words[1:] {
		if len(cuts) > 0 && cuts[len(cuts)-1].Bucket == int32(b) {
			cuts[len(cuts)-1].Count++
		} else {
			cuts = append(cuts, Cut{Bucket: int32(b), Count: 1})
		}
	}
	return cuts
}

// encodeKeyRuns writes a message of keys, each key followed by vwords words
// of its value (here its index j, vwords times), in the shorter of the two
// forms KeyRunWords prices: each key then its value, or each run of
// consecutive keys as its first key and length, then the run's values. The
// run form writes its first word complemented, negative where the key is
// not; a message whose first key is negative goes a key a word after the
// tag word math.MinInt64.
func encodeKeyRuns(keys []int64, vwords int) []int64 {
	vals := func(out []int64, j int) []int64 {
		for range vwords {
			out = append(out, int64(j))
		}
		return out
	}
	var perKey, perRun []int64
	runs := 0
	for j := 0; j < len(keys); runs++ {
		l := 1
		for j+l < len(keys) && keys[j+l] == keys[j+l-1]+1 {
			l++
		}
		perRun = append(perRun, keys[j], int64(l))
		for x := j; x < j+l; x++ {
			perKey, perRun = vals(append(perKey, keys[x]), x), vals(perRun, x)
		}
		j += l
	}
	if len(keys) > 0 && keys[0] < 0 {
		return append([]int64{math.MinInt64}, perKey...)
	}
	if len(keys) == 0 || 2*runs >= len(keys) {
		return perKey
	}
	perRun[0] = ^perRun[0]
	return perRun
}

// decodeKeyRuns reverses encodeKeyRuns from the message alone, reading the
// form off its first words and parsing to its end: the keys, and the values
// as the index each one carries. A first word that is not negative opens
// the key form; math.MinInt64 before a negative word is the tag of a
// message whose first key is negative (a run form's second word is its
// first run's length, at least 1); any other negative word opens the run
// form.
func decodeKeyRuns(words []int64, vwords int) (keys, vals []int64) {
	value := func(p int) {
		if vwords > 0 {
			vals = append(vals, words[p])
		}
	}
	if tagged := len(words) > 1 && words[0] == math.MinInt64 && words[1] < 0; tagged || len(words) == 0 || words[0] >= 0 {
		if tagged {
			words = words[1:]
		}
		for p := 0; p < len(words); p += 1 + vwords {
			keys = append(keys, words[p])
			value(p + 1)
		}
		return keys, vals
	}
	for p, first := 0, ^words[0]; p < len(words); {
		l := int(words[p+1])
		for x := range l {
			keys = append(keys, first+int64(x))
			value(p + 2 + x*vwords)
		}
		if p += 2 + l*vwords; p < len(words) {
			first = words[p]
		}
	}
	return keys, vals
}

// checkKeyRun round-trips a key run under header head and checks that the
// encoding is the words keyWords charges, plus the header.
func checkKeyRun(t *testing.T, head int64, keys []SortKey, count func(int64) int) int {
	t.Helper()
	enc := encodeKeys(head, keys)
	gotHead, got := decodeKeys(enc, count)
	if gotHead != head || !slices.Equal(got, keys) {
		t.Fatalf("keys %v under header %d decode to %v under %d", keys, head, got, gotHead)
	}
	if len(enc) != keyWords(keys)+1 {
		t.Fatalf("keys %v encode to %d words, keyWords charges %d + 1", keys, len(enc), keyWords(keys))
	}
	return len(enc)
}

// checkRunCuts round-trips the cuts of a whole run and checks that the
// encoding is the words runCutWords charges, plus the header.
func checkRunCuts(t *testing.T, cuts []Cut, items int) int {
	t.Helper()
	enc := encodeRunCuts(cuts, items)
	if got := decodeRunCuts(enc); !slices.Equal(got, cuts) {
		t.Fatalf("cuts %v of %d items decode to %v", cuts, items, got)
	}
	if len(enc) != runCutWords(cuts, items)+1 {
		t.Fatalf("cuts %v of %d items encode to %d words, runCutWords charges %d + 1", cuts, items, len(enc), runCutWords(cuts, items))
	}
	return len(enc)
}

// TestSortMessageWords: every shape Table 1's Sorts send round-trips, and
// its encoding is exactly the words charged.
func TestSortMessageWords(t *testing.T) {
	const q = 64
	sampleCount := func(count int64) int { return min(q, int(count)) }
	listCount := func(n int64) int { return int(n) }
	run := func(n int, key func(j int) SortKey) []SortKey {
		keys := make([]SortKey, n)
		for j := range keys {
			keys[j] = key(j)
		}
		return keys
	}
	for _, tc := range []struct {
		name  string
		count int64
		keys  []SortKey
		want  int
	}{
		// A machine's plan requests: the tag and the requester are constant.
		{"plan requests", 45, run(45, func(j int) SortKey { return SortKey{A: int64(3 * j), B: 1, C: 17} }), 45 + 2 + 1},
		{"aggregate keys", 45, run(45, func(j int) SortKey { return SortKey{A: int64(j * j)} }), 45 + 2 + 1},
		{"all varying", 45, run(45, func(j int) SortKey { return SortKey{A: int64(j), B: int64(-j), C: int64(j % 7)} }), 3*45 + 1},
		{"one key", 1, []SortKey{{A: 5, B: 1, C: 3}}, 3 + 1},
		{"empty sample", 0, nil, 1},
		// A machine past the whole-run bound (wholeRun) sends q keys and its count.
		{"over q", 300, run(q, func(j int) SortKey { return SortKey{A: int64(j), B: 1, C: 4} }), q + 2 + 1},
		// Arrange's grouped sample: each key is its group's least.
		{"grouped", 45, run(45, func(j int) SortKey { return groupKey(SortKey{A: int64(j / 3), B: int64(j), C: -1}) }), 45 + 2 + 1},
	} {
		if got := checkKeyRun(t, tc.count, tc.keys, sampleCount); got != tc.want {
			t.Errorf("%s sample: %d words, want %d", tc.name, got, tc.want)
		}
		if got := checkKeyRun(t, int64(len(tc.keys)), tc.keys, listCount); got != tc.want {
			t.Errorf("%s list: %d words, want %d", tc.name, got, tc.want)
		}
	}

	// Whole runs of 45 items against K = 182 buckets.
	const items, k = 45, 182
	// A group-aligned list of its K-1 splitters is K + 1 words and the header.
	aligned := run(k-1, func(j int) SortKey { return groupKey(SortKey{A: int64(7 * j)}) })
	if got := checkKeyRun(t, int64(len(aligned)), aligned, listCount); got != k+1+1 {
		t.Errorf("group-aligned list: %d words, want %d", got, k+1+1)
	}
	sp := make([]SortKey, k-1)
	for j := range sp {
		sp[j] = SortKey{A: int64(10 * (j + 1))}
	}
	for _, tc := range []struct {
		name string
		key  func(j int) SortKey
		want int
	}{
		{"one bucket", func(j int) SortKey { return SortKey{A: 500} }, 1 + 2},
		{"three buckets", func(j int) SortKey { return SortKey{A: int64(500 + 10*(j%3))} }, 1 + 2*3},
		{"sparse", func(j int) SortKey { return SortKey{A: int64(37 * j)} }, 1 + items},
	} {
		keys := run(items, tc.key)
		slices.SortFunc(keys, SortKey.Compare)
		cuts := runCuts(nil, keys, sp, k, identKey)
		if got := checkRunCuts(t, cuts, items); got != tc.want {
			t.Errorf("%s: %d cuts of %d items encode to %d words, want %d", tc.name, len(cuts), items, got, tc.want)
		}
	}
	checkRunCuts(t, nil, 0)
}

// FuzzKeyRunWords fuzzes KeyRunWords, the price of the keys of a per-key
// message into or out of the large machine, over key lists whose steps are
// drawn by the bits of mask: +1 (a run goes on), 0 (a key repeats), a gap
// of 2..9, or a step back of 1..8. The first key is start, so it may be
// negative (no site ships such a list: it pays a tag word and a key a
// word), and values are 0..3 words each. Decoding what was encoded, with
// nothing but the encoding, returns the keys and values, the encoding's
// length is the keys' charge plus the values', and no charge exceeds a key
// a word, what a key cost before the run form, plus the tag word where the
// first key is negative.
func FuzzKeyRunWords(f *testing.F) {
	f.Add(uint8(40), uint8(1), int64(0), uint64(1))   // one run from vertex 0
	f.Add(uint8(40), uint8(5), int64(300), uint64(2)) // runs cut by gaps
	f.Add(uint8(40), uint8(3), int64(7), uint64(3))   // runs and repeats
	f.Add(uint8(40), uint8(15), int64(9), uint64(4))  // any step, unsorted
	f.Add(uint8(0), uint8(1), int64(0), uint64(5))    // empty
	f.Add(uint8(1), uint8(1), int64(4), uint64(6))    // one key
	f.Add(uint8(40), uint8(1), int64(-3), uint64(7))  // a run through 0 from a negative key: a tag word
	f.Add(uint8(40), uint8(4), int64(1), uint64(8))   // every key alone: gaps only
	f.Fuzz(func(t *testing.T, n, mask uint8, start int64, seed uint64) {
		rng := xrand.New(seed)
		steps := []int64{1, 0, 2, -1}
		keys := make([]int64, n)
		for j := range keys {
			if j == 0 {
				keys[j] = start
				continue
			}
			step := steps[rng.IntN(len(steps))]
			if mask&(1<<slices.Index(steps, step)) == 0 {
				step = 1
			}
			switch step {
			case 2:
				step += rng.Int64N(8)
			case -1:
				step -= rng.Int64N(8)
			}
			keys[j] = keys[j-1] + step
		}
		vwords := int(mask>>4) & 3
		enc := encodeKeyRuns(keys, vwords)
		got, vals := decodeKeyRuns(enc, vwords)
		if !slices.Equal(got, keys) {
			t.Fatalf("keys %v at %d value words decode to %v", keys, vwords, got)
		}
		for j := range keys {
			if vwords > 0 && (len(vals) != len(keys) || vals[j] != int64(j)) {
				t.Fatalf("keys %v at %d value words decode with values %v", keys, vwords, vals)
			}
		}
		words := KeyRunWords(keys, func(k int64) int64 { return k })
		if len(enc) != words+vwords*len(keys) {
			t.Fatalf("keys %v at %d value words encode to %d words, KeyRunWords charges %d + %d", keys, vwords, len(enc), words, vwords*len(keys))
		}
		limit := len(keys)
		if len(keys) > 0 && keys[0] < 0 {
			limit++ // the tag word
		}
		if words > limit {
			t.Fatalf("keys %v cost %d words, more than a key a word and the tag word a negative first key pays", keys, words)
		}
	})
}

// groupKey is a key's group's least key, as a grouped sample carries it.
func groupKey(k SortKey) SortKey { return SortKey{A: k.A, B: math.MinInt64, C: math.MinInt64} }

// FuzzSortMessageWords fuzzes the same two encodings over random key runs:
// each column of the run is constant or drawn per key by its bit of mask,
// and the sorted run is cut against splitters drawn from its sample into
// 1..256 buckets. With bit 8 of mask the sample is grouped (groupKey), as
// Arrange's is, and so are the splitters. Decoding what was encoded returns
// the input, the encoding's length is the words charged, no run costs more
// than 3 words a key — a grouped one no more than n + 2 — and the cuts of a
// grouped whole sample are the cuts of the run it stands for. Bit 32 of mask
// makes the keys a plan's requests when checkSummaries deals them.
func FuzzSortMessageWords(f *testing.F) {
	f.Add(uint8(45), uint8(1), uint8(181), uint64(7)) // plan-shaped
	f.Add(uint8(1), uint8(7), uint8(0), uint64(1))
	f.Add(uint8(0), uint8(0), uint8(3), uint64(2))
	f.Add(uint8(200), uint8(7), uint8(255), uint64(3))
	f.Add(uint8(45), uint8(15), uint8(181), uint64(4)) // arrange-shaped
	f.Add(uint8(200), uint8(9), uint8(7), uint64(5))
	f.Add(uint8(200), uint8(23), uint8(63), uint64(6))  // tight caps: the coordinator leads
	f.Add(uint8(200), uint8(7), uint8(63), uint64(7))   // 8 leaders
	f.Add(uint8(200), uint8(31), uint8(9), uint64(8))   // tight caps, grouped: 4 leaders at one word a key
	f.Add(uint8(150), uint8(17), uint8(6), uint64(9))   // tight caps, column A only: 3 leaders
	f.Add(uint8(200), uint8(33), uint8(63), uint64(10)) // a plan's requests: B = 1, C the machine
	f.Fuzz(func(t *testing.T, n, mask, nbm1 uint8, seed uint64) {
		rng := xrand.New(seed)
		draw := func(bit uint8, c int64) int64 {
			if mask&bit == 0 {
				return c
			}
			return rng.Int64N(64) - 32
		}
		keys := make([]SortKey, n)
		for j := range keys {
			keys[j] = SortKey{A: draw(1, 3), B: draw(2, 1), C: draw(4, -9)}
		}
		slices.SortFunc(keys, SortKey.Compare)
		grouped, sample := mask&8 != 0, keys
		if grouped {
			sample = make([]SortKey, len(keys))
			for j, k := range keys {
				sample[j] = groupKey(k)
			}
		}
		count := func(h int64) int { return int(h) }
		words := checkKeyRun(t, int64(n), sample, count)
		if len(keys) > 0 && (words < sortKeyWords+1 || words > sortKeyWords*len(keys)+1) {
			t.Fatalf("%d keys cost %d words, want 4..%d", len(keys), words, sortKeyWords*len(keys)+1)
		}
		if grouped && len(keys) > 0 && words > len(keys)+2+1 {
			t.Fatalf("%d grouped keys cost %d words, want at most %d", len(keys), words, len(keys)+2+1)
		}

		nb := int(nbm1) + 1
		var sp []SortKey
		for j := 1; j < nb && len(keys) > 0; j++ {
			sp = append(sp, sample[rng.IntN(len(keys))])
		}
		slices.SortFunc(sp, SortKey.Compare)
		checkKeyRun(t, int64(len(sp)), sp, count)
		cuts := runCuts(nil, keys, sp, nb, identKey)
		checkRunCuts(t, cuts, len(keys))
		if got := runCuts(nil, sample, sp, nb, identKey); !slices.Equal(got, cuts) {
			t.Fatalf("the sample cuts to %v, the run it stands for to %v", got, cuts)
		}
		checkSummaries(t, keys, nb, mask, seed)
	})
}

// checkSummaries sorts keys, dealt round-robin, on min(nb, 64) machines:
// with bit 16 of mask the small machines' caps are too tight for ⌈√K⌉
// leaders to hold their groups' samples, summaries and replies at
// sortKeyWords a key, so the coordinator leads a plain Sort alone
// (sortLeaders); at the default caps leaders do, from K = 2 on. A grouped
// draw's keys, or one whose columns B and C are constant, are counted at
// one word a key, which leaves room for leaders at some tight K too. Every
// leader's summary round-trips, and the summary round carries r−1 copies of
// each, as encoded. A summary's key count is not on the wire: the receiver
// derives it from the header, twice the group's count plus a bit set when
// the summary is 4g keys, else min(count, g). With bit 32 of mask the keys
// are a plan's requests, (A, 1, machine), sorted as NewPlan's are. Every
// sample and summary encodes to no more words than its keys cost at the
// Sort's widths, and the list to no more than one word a key when they vary
// in column A alone, sortKeyWords otherwise; no leader receives more in the sample and summary
// rounds and sends more in the reply round than the bound sortLeaders put
// on it (heldWords).
func checkSummaries(t *testing.T, keys []SortKey, nb int, mask uint8, seed uint64) {
	t.Helper()
	cfg := mpc.Config{N: 256, M: 2048, K: min(nb, 64), Seed: seed, Trace: trace.New()}
	if mask&16 != 0 {
		cfg.CSmall = 0.05
	}
	c, err := mpc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k, plan := c.K(), mask&32 != 0
	how := split{grouped: mask&8 != 0 && !plan, oneCol: mask&6 == 0 && !plan}
	if plan {
		how.align, how.spans = k, true
	}
	ld, grouped := sortLeaders(c, how), how.grouped
	sw, mw := how.widths()
	lw := sortKeyWords // the list's keys vary in column A alone where the samples' do
	if how.grouped || how.oneCol {
		lw = 1
	}
	if r := sortLeaders(c, split{}).r(); mask&16 != 0 && k >= 8 && r != 1 || mask&16 == 0 && k >= 2 && r == 1 || ld.r() < r {
		t.Fatalf("K=%d CSmall=%v: %d leaders at sortKeyWords a key, %d at widths %d, %d, %d", k, cfg.CSmall, r, ld.r(), sw, mw, lw)
	}
	runs := make([][]SortKey, k)
	for j, key := range keys {
		if plan {
			key.B, key.C = 1, int64(j%k)
		}
		runs[j%k] = append(runs[j%k], key)
	}
	starts := make([]int, k+1)
	for i := range runs {
		slices.SortFunc(runs[i], SortKey.Compare)
		starts[i+1] = starts[i] + min(k, len(runs[i]))
	}
	sp, samples, _, err := sortSplitters(c, ld, runs, identKey, how, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range samples {
		keys := samples[i].Keys
		words := checkKeyRun(t, int64(samples[i].Count), keys, func(n int64) int { return ld.sampleSize(c, i, int(n)) })
		if bound := runWords(sw, len(keys)) + 1; words > bound {
			t.Fatalf("machine %d's sample of %d keys encodes to %d words, past its width-%d bound %d", i, len(keys), words, sw, bound)
		}
	}
	if words, bound := checkKeyRun(t, int64(len(sp)), sp, func(n int64) int { return int(n) }), runWords(lw, len(sp))+1; words > bound {
		t.Fatalf("the list of %d keys encodes to %d words, past its width-%d bound %d", len(sp), words, lw, bound)
	}
	if ld.r() == 1 {
		return
	}
	// The leaders' summaries, rebuilt from the samples they were sent.
	r := ld.r()
	ptrs := make([]*sample, k)
	merges := make([]sampleMerge, r)
	for j := range merges {
		lo, hi := ld.group(k, j)
		inbox := make([]mpc.Msg, 0, hi-lo)
		for i := lo; i < hi; i++ {
			inbox = append(inbox, mpc.Msg{From: i, Data: &samples[i]})
		}
		if merges[j], err = inboxSamples(inbox, ptrs[lo:hi], nil); err != nil {
			t.Fatal(err)
		}
	}
	var want int64
	for j, sum := range summaries(c, ld, samples, merges, grouped) {
		four := int64(0)
		if len(sum.Keys) == 4*ld.g {
			four = 1
		}
		enc := encodeKeys(2*int64(sum.Count)+four, sum.Keys)
		if grouped {
			enc = append(enc, int64(sum.Gap))
		}
		head, got := decodeKeys(enc, func(h int64) int {
			if h&1 == 1 {
				return 4 * ld.g
			}
			return min(int(h>>1), ld.g)
		})
		if head>>1 != int64(sum.Count) || !slices.Equal(got, sum.Keys) || grouped && enc[len(enc)-1] != int64(sum.Gap) {
			t.Fatalf("leader %d's summary of %d keys under count %d does not round-trip", j, len(sum.Keys), sum.Count)
		}
		if len(enc) != summaryWords(&sum, grouped) {
			t.Fatalf("leader %d's summary encodes to %d words, summaryWords charges %d", j, len(enc), summaryWords(&sum, grouped))
		}
		if bound := runWords(mw, len(sum.Keys)) + 2; len(enc) > bound {
			t.Fatalf("leader %d's summary of %d keys encodes to %d words, past its width-%d bound %d", j, len(sum.Keys), len(enc), mw, bound)
		}
		want += int64(r-1) * int64(len(enc))
	}
	if rd := cfg.Trace.Rounds()[1]; rd.Phase != "summary" || rd.Words != want {
		t.Fatalf("the summary round is %q with %d words, want summary with %d", rd.Phase, rd.Words, want)
	}

	if _, err := sortReplies(c, ld, sp, samples, make([]Cut, starts[k]), starts, nil); err != nil {
		t.Fatal(err)
	}
	rounds := cfg.Trace.Rounds()
	at := func(words []int, id int) int { // a round that moves no word records no slots
		if 1+id < len(words) {
			return words[1+id]
		}
		return 0
	}
	for _, id := range ld.ids {
		held := at(rounds[0].RecvWords, id) + at(rounds[1].RecvWords, id) + at(rounds[2].SendWords, id)
		if bound := how.heldWords(k, ld.g, r, leaderCap(c, id)); held > bound {
			t.Fatalf("leader %d of %d receives and replies %d words, past the bound %d at widths %d, %d, %d", id, r, held, bound, sw, mw, lw)
		}
	}
}
