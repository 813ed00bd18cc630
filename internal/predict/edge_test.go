package predict

import "testing"

// TestStrideEdgeTable drives the two-delta stride predictor through the
// numeric edges: zero stride, negative strides (two's-complement deltas),
// and sequences that wrap the uint64 boundary in both directions. All
// arithmetic is mod 2^64, so a locked stride must keep hitting straight
// through the wrap.
func TestStrideEdgeTable(t *testing.T) {
	neg := func(v uint64) uint64 { return -v }
	cases := []struct {
		name    string
		start   uint64
		stride  uint64
		n       int
		minRate float64
	}{
		{"zero-stride", 7, 0, 100, 0.97},
		{"negative-small", 1 << 20, neg(5), 100, 0.97},
		{"negative-one", 50, neg(1), 100, 0.97},
		{"wrap-ascending", ^uint64(0) - 10, 3, 100, 0.97},
		{"wrap-descending", 10, neg(7), 100, 0.97},
		{"wrap-huge-stride", 5, 1 << 63, 100, 0.97},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if r := MeasureRate(NewStride(), seqStride(tc.n, tc.start, tc.stride)); r < tc.minRate {
				t.Errorf("rate %.3f, want >= %.2f", r, tc.minRate)
			}
		})
	}
}

// TestStrideExactAcrossWrap pins exact predictions, not just a rate:
// once the delta repeats, every prediction equals last+stride even as the
// sequence crosses the uint64 boundary.
func TestStrideExactAcrossWrap(t *testing.T) {
	p := NewStride()
	v := ^uint64(0) - 5 // three steps of +4 from here wrap past zero
	for i := 0; i < 3; i++ {
		p.Update(v)
		v += 4
	}
	for i := 0; i < 8; i++ {
		pred, ok := p.Predict()
		if !ok || pred != v {
			t.Fatalf("step %d: predicted (%d, %v), want (%d, true)", i, pred, ok, v)
		}
		p.Update(v)
		v += 4
	}
}

// TestFCMPeriodEdges covers the degenerate and oversized context periods:
// a period-1 (constant) stream is the smallest learnable context, and a
// period longer than the table has more distinct contexts than slots, so
// the predictor degrades (collisions evict) but must stay a valid
// predictor. The table rows vary order and table size together.
func TestFCMPeriodEdges(t *testing.T) {
	period16 := make([]uint64, 16)
	for i := range period16 {
		period16[i] = uint64(1000 + 37*i)
	}
	cases := []struct {
		name      string
		order     int
		tableBits int
		seq       []uint64
		minRate   float64
		maxRate   float64
	}{
		{"period-1-order-1", 1, 4, seqConst(100, 42), 0.9, 1},
		{"period-1-default", DefaultFCMOrder, DefaultFCMTableBits, seqConst(100, 42), 0.9, 1},
		{"period-16-big-table", 2, 12, seqPeriodic(320, period16), 0.9, 1},
		// 16 distinct order-2 contexts hashed into 4 slots: collisions are
		// guaranteed, perfection is impossible, validity is required.
		{"period-16-tiny-table", 2, 2, seqPeriodic(320, period16), 0, 0.9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := MeasureRate(NewFCM(tc.order, tc.tableBits), tc.seq)
			if r < tc.minRate || r > tc.maxRate {
				t.Errorf("rate %.3f outside [%.2f, %.2f]", r, tc.minRate, tc.maxRate)
			}
		})
	}
}

// TestFCMTinyTableStillBeatenByBigTable pins that the degradation in the
// oversized-period row above really is collision damage: the same stream
// through a table large enough to hold every context predicts strictly
// better.
func TestFCMTinyTableStillBeatenByBigTable(t *testing.T) {
	period := make([]uint64, 16)
	for i := range period {
		period[i] = uint64(i * i)
	}
	seq := seqPeriodic(320, period)
	big := MeasureRate(NewFCM(2, 12), seq)
	tiny := MeasureRate(NewFCM(2, 2), seq)
	if big <= tiny {
		t.Errorf("big table %.3f not above tiny table %.3f on a period-16 stream", big, tiny)
	}
}

// TestFCMConstructorClampsDegenerateSizes: order < 1 and tableBits < 2 are
// clamped, not rejected, and the clamped predictor still learns.
func TestFCMConstructorClampsDegenerateSizes(t *testing.T) {
	p := NewFCM(0, 0)
	if r := MeasureRate(p, seqConst(50, 9)); r < 0.9 {
		t.Errorf("clamped FCM rate %.3f on constant stream, want >= 0.9", r)
	}
}

// TestHybridTieBreaksToStride pins the tournament's tie rule: with equal
// hit counts and both components offering (different) predictions, the
// hybrid sides with stride — the cheaper of the paper's two hardware
// schemes. Tipping the count by a single FCM hit flips the choice.
func TestHybridTieBreaksToStride(t *testing.T) {
	h := NewHybrid(1, 4)
	// Stride component: locked on +10, will predict 40.
	for _, v := range []uint64{10, 20, 30} {
		h.stride.Update(v)
	}
	// FCM component (order 1): context 7 maps to 99, history sits at 7,
	// so it will predict 99.
	for _, v := range []uint64{7, 99, 7} {
		h.fcm.Update(v)
	}
	if sv, ok := h.stride.Predict(); !ok || sv != 40 {
		t.Fatalf("stride component predicts (%d, %v), want (40, true)", sv, ok)
	}
	if fv, ok := h.fcm.Predict(); !ok || fv != 99 {
		t.Fatalf("fcm component predicts (%d, %v), want (99, true)", fv, ok)
	}

	h.sHits, h.fHits = 3, 3
	if v, ok := h.Predict(); !ok || v != 40 {
		t.Errorf("tied tournament predicted (%d, %v), want stride's (40, true)", v, ok)
	}
	h.fHits++
	if v, ok := h.Predict(); !ok || v != 99 {
		t.Errorf("fcm-ahead tournament predicted (%d, %v), want fcm's (99, true)", v, ok)
	}
}

// TestRecorderLogsUpdateOrder: the Recorder passes predictions through
// untouched and logs exactly the training stream, which is what the
// conformance harness replays as a perfect predictor.
func TestRecorderLogsUpdateOrder(t *testing.T) {
	r := &Recorder{P: NewStride()}
	seq := seqStride(10, 3, 5)
	for _, v := range seq {
		r.Update(v)
	}
	if len(r.Log) != len(seq) {
		t.Fatalf("logged %d values, trained with %d", len(r.Log), len(seq))
	}
	for i, v := range seq {
		if r.Log[i] != v {
			t.Fatalf("log[%d] = %d, want %d", i, r.Log[i], v)
		}
	}
	want, wantOK := r.P.Predict()
	got, gotOK := r.Predict()
	if got != want || gotOK != wantOK {
		t.Errorf("Recorder.Predict = (%d, %v), inner = (%d, %v)", got, gotOK, want, wantOK)
	}
	r.Reset()
	if len(r.Log) != 0 {
		t.Error("Reset kept the log")
	}
}

// TestLastNTieBreakTable pins the last-n-value selection rule: the modal
// ring value wins, and an exact frequency tie goes to the most recently
// observed candidate. The final row pins that a new observation flips a
// tie the other way.
func TestLastNTieBreakTable(t *testing.T) {
	cases := []struct {
		name  string
		depth int
		feed  []uint64
		want  uint64
	}{
		{"majority-wins", 4, []uint64{5, 5, 5, 7}, 5},
		{"majority-wins-late", 4, []uint64{7, 5, 5, 5}, 5},
		{"tie-to-most-recent", 4, []uint64{5, 5, 7, 7}, 7},
		{"tie-flips-on-update", 4, []uint64{5, 5, 7, 7, 5}, 5},
		{"depth-1-is-last-value", 1, []uint64{9, 3, 8}, 8},
		{"clamped-depth", 0, []uint64{9, 3, 8}, 8},
		{"ring-evicts-oldest", 3, []uint64{5, 5, 7, 7, 7}, 7},
		{"partial-fill", 8, []uint64{4, 4, 6}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewLastN(tc.depth)
			for _, v := range tc.feed {
				p.Update(v)
			}
			if v, ok := p.Predict(); !ok || v != tc.want {
				t.Errorf("predicted (%d, %v), want (%d, true)", v, ok, tc.want)
			}
		})
	}
	if _, ok := NewLastN(4).Predict(); ok {
		t.Error("cold last-n predictor claims a prediction")
	}
}

// TestLastNBeatsLastValueOnAlternation: the motivating stream — a value
// that mostly repeats but takes periodic one-cycle excursions — thrashes
// last-value (every excursion costs two misses) while the modal ring
// predicts the dominant value throughout.
func TestLastNBeatsLastValueOnAlternation(t *testing.T) {
	seq := make([]uint64, 0, 120)
	for i := 0; i < 30; i++ {
		seq = append(seq, 100, 100, 100, 777) // 1-in-4 excursion
	}
	lnv := MeasureRate(NewLastN(4), seq)
	last := MeasureRate(NewLastValue(), seq)
	if lnv <= last {
		t.Errorf("lnv %.3f not above last-value %.3f on excursion stream", lnv, last)
	}
}

// TestVTAGEPeriodicAcrossRingWrap: a periodic stream longer than the
// site's 8-deep history ring forces the ring to wrap continuously; since
// every value in the pattern is distinct, the order-1 component alone
// determines each successor, so the predictor must stay accurate through
// the wraps — the pin that histAt indexing is consistent mod the ring
// size.
func TestVTAGEPeriodicAcrossRingWrap(t *testing.T) {
	pattern := make([]uint64, 12) // period > vtageMaxHist
	for i := range pattern {
		pattern[i] = uint64(5000 + 31*i)
	}
	site := NewVTAGE(DefaultVTAGEBits).Site(0)
	if r := MeasureRate(site, seqPeriodic(480, pattern)); r < 0.85 {
		t.Errorf("rate %.3f on period-12 stream, want >= 0.85", r)
	}
}

// TestVTAGETinyTableStillBeatenByBigTable mirrors the FCM pin: a stream
// with more distinct contexts than a tiny table has slots degrades under
// collisions and eviction, and a table large enough to hold every context
// must predict strictly better.
func TestVTAGETinyTableStillBeatenByBigTable(t *testing.T) {
	pattern := make([]uint64, 64)
	for i := range pattern {
		pattern[i] = uint64(i*i + 17)
	}
	seq := seqPeriodic(640, pattern)
	big := MeasureRate(NewVTAGE(12).Site(0), seq)
	tiny := MeasureRate(NewVTAGE(2).Site(0), seq)
	if big <= tiny {
		t.Errorf("big table %.3f not above tiny table %.3f on a period-64 stream", big, tiny)
	}
}

// TestVTAGETagAliasingBetweenSites pins that the table really is shared
// hardware: with 4-entry components and 8-bit tags, some other site's
// (index, tag) pair collides with a trained site's entry, and the aliased
// site then reads a value it never observed. The colliding site is found
// by searching site IDs with the same hash the predictor uses.
func TestVTAGETagAliasingBetweenSites(t *testing.T) {
	tab := NewVTAGE(2)
	a := tab.Site(0)
	// A constant stream never leaves the base predictor, so alternate two
	// values: the base mispredicts every step and the order-1 component
	// learns [99] -> 42 and [42] -> 99.
	for i := 0; i < 20; i++ {
		a.Update(42)
		a.Update(99)
	}
	wantIdx, wantTag := a.hash(0) // order-1 context [99], entry holds 42
	if e := &tab.comps[0][wantIdx]; e.ctr == 0 || e.tag != wantTag || e.value != 42 {
		t.Fatalf("site 0 order-1 entry not trained: %+v", e)
	}
	for id := 1; id < 1<<20; id++ {
		b := tab.Site(id)
		b.Update(7) // one observation: base state only, no allocation yet
		if idx, tag := b.hash(0); idx == wantIdx && tag == wantTag {
			v, ok := b.Predict()
			if !ok || v != 42 {
				t.Fatalf("aliased site %d predicted (%d, %v), want site 0's (42, true)", id, v, ok)
			}
			return
		}
	}
	t.Fatal("no aliasing site ID found in 2^20 candidates (hash changed?)")
}

// refVTAGEHash is the component hash written out directly: FNV-1a over the
// site ID, then the newest histLen values, newest first, mixed afresh.
func refVTAGEHash(s *VTAGESite, histLen int) (uint64, uint16) {
	var h uint64 = 14695981039346656037
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	mix(uint64(s.id))
	for i := 0; i < histLen; i++ {
		mix(s.hist[((s.head-1-i)%vtageMaxHist+vtageMaxHist)%vtageMaxHist])
	}
	return h & s.t.mask, uint16(h>>32) & vtageTagMask
}

// TestVTAGEHashMatchesDirectFold pins the one-pass, memoized component
// hashes bit-identical to a direct fold of each history, through ring
// wraps, interleaved Predict/Update calls and mid-stream Resets — the
// table contents, and so every VTAGE result, depend on it.
func TestVTAGEHashMatchesDirectFold(t *testing.T) {
	tab := NewVTAGE(6)
	sites := []*VTAGESite{tab.Site(0), tab.Site(3), tab.Site(1 << 20)}
	x := uint64(12345)
	for step := 0; step < 400; step++ {
		s := sites[step%len(sites)]
		x = x*6364136223846793005 + 1442695040888963407
		v := x >> 61 // few distinct values, so components train and hit
		if step%97 == 0 {
			s.Reset()
		}
		if step%3 == 0 {
			s.Predict()
		}
		for ci, hl := range vtageHistLens {
			if s.n < hl {
				continue
			}
			idx, tag := s.hash(ci)
			wantIdx, wantTag := refVTAGEHash(s, hl)
			if idx != wantIdx || tag != wantTag {
				t.Fatalf("step %d site %d component %d: hash (%d, %d), want (%d, %d)",
					step, s.id, ci, idx, tag, wantIdx, wantTag)
			}
		}
		s.Update(v)
	}
}

// TestVTAGESiteResetKeepsSharedTable pins the lifecycle contract the
// engine's lazy epoch reset depends on: resetting one site view clears
// only its local history, never the shared table another site trained.
func TestVTAGESiteResetKeepsSharedTable(t *testing.T) {
	tab := NewVTAGE(6)
	a, b := tab.Site(1), tab.Site(2)
	for i := 0; i < 30; i++ {
		a.Update(11)
		a.Update(33) // alternate so the shared table actually trains
		b.Update(22)
	}
	aIdx, aTag := a.hash(0)
	before := tab.comps[0][aIdx]
	if before.ctr == 0 || before.tag != aTag {
		t.Fatalf("site 1 order-1 entry not trained: %+v", before)
	}
	b.Reset()
	if got := tab.comps[0][aIdx]; got != before {
		t.Errorf("sibling Reset changed a trained entry: %+v -> %+v", before, got)
	}
	if _, ok := b.Predict(); ok {
		t.Error("reset site still claims a base prediction")
	}
	for i := 0; i < 30; i++ {
		b.Update(22)
	}
	if v, ok := b.Predict(); !ok || v != 22 {
		t.Errorf("retrained site predicted (%d, %v), want (22, true)", v, ok)
	}
	tab.Reset()
	if got := tab.comps[0][aIdx]; got.ctr != 0 {
		t.Errorf("table Reset left a live entry: %+v", got)
	}
}

// TestConfCounterSaturationAndDecay drives the gating counter through its
// edges: monotone climb to saturation (no overflow past max), threshold
// crossing exactly at the configured count, and the reset-on-mispredict
// decay that makes a site re-earn trust from zero.
func TestConfCounterSaturationAndDecay(t *testing.T) {
	var c ConfCounter
	for i := 0; i < 20; i++ {
		c.Train(true, 7)
		if int(c) > 7 {
			t.Fatalf("counter overflowed saturation: %d", c)
		}
	}
	if int(c) != 7 {
		t.Errorf("counter = %d after 20 correct, want saturated 7", c)
	}
	if !c.Confident(7) || !c.Confident(1) {
		t.Error("saturated counter not confident")
	}
	c.Train(false, 7)
	if int(c) != 0 {
		t.Errorf("counter = %d after mispredict, want 0", c)
	}
	if c.Confident(1) {
		t.Error("reset counter still confident at threshold 1")
	}
	for i := 0; i < 3; i++ {
		c.Train(true, 7)
	}
	if c.Confident(4) || !c.Confident(3) {
		t.Errorf("counter = %d: threshold crossing off by one", c)
	}
	// A 1-bit counter saturates at 1 and still obeys both policies.
	var one ConfCounter
	one.Train(true, 1)
	one.Train(true, 1)
	if int(one) != 1 || !one.Confident(1) {
		t.Errorf("1-bit counter = %d, want 1 and confident", one)
	}
	one.Train(false, 1)
	if int(one) != 0 {
		t.Errorf("1-bit counter = %d after mispredict, want 0", one)
	}
}

// TestReplayAdvancesOnPredict: Replay consumes its sequence on Predict
// (prediction order, not training order), ignores Update, reports cold
// when exhausted, and rewinds on Reset.
func TestReplayAdvancesOnPredict(t *testing.T) {
	p := &Replay{Seq: []uint64{4, 8, 15}}
	for i, want := range p.Seq {
		p.Update(uint64(1000 + i)) // must not advance or disturb anything
		v, ok := p.Predict()
		if !ok || v != want {
			t.Fatalf("predict %d = (%d, %v), want (%d, true)", i, v, ok, want)
		}
	}
	if _, ok := p.Predict(); ok {
		t.Error("exhausted replay still claims a prediction")
	}
	p.Reset()
	if v, ok := p.Predict(); !ok || v != 4 {
		t.Errorf("after Reset, predict = (%d, %v), want (4, true)", v, ok)
	}
}
