package core_test

import (
	"bytes"
	"testing"

	"vliwvp/internal/core"
	"vliwvp/internal/machine"
	"vliwvp/internal/obs"
)

// collectSink records events for assertions.
type collectSink struct {
	events []obs.Event
}

func (c *collectSink) Event(e *obs.Event) {
	cp := *e
	cp.Operands = append([]obs.SiteState(nil), e.Operands...)
	c.events = append(c.events, cp)
}

// TestTimingZeroAllocWithoutSink proves the acceptance property: with no
// sink attached, a warmed-up SimulateBlock performs zero allocations —
// the event path (formerly eager fmt.Sprintf) costs nothing when
// disabled.
func TestTimingZeroAllocWithoutSink(t *testing.T) {
	d := machine.W4
	_, bs, an := paperSetup(t, d)
	tm := core.NewTiming(d)
	// Warm the reusable scratch (first call sizes maps and slices).
	for mask := uint32(0); mask < 4; mask++ {
		if _, err := tm.SimulateBlock(bs, an, mask); err != nil {
			t.Fatal(err)
		}
	}
	mask := uint32(0)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := tm.SimulateBlock(bs, an, mask&3); err != nil {
			t.Fatal(err)
		}
		mask++
	})
	if allocs != 0 {
		t.Errorf("SimulateBlock with no sink allocates %.1f objects/run, want 0", allocs)
	}

	// Sanity: the same simulation WITH a sink does allocate (events are
	// real), so the zero above demonstrates sink-gating, not a vacuous
	// measurement.
	var sunk int
	tm.Sink = obs.TextFunc(func(int64, string) { sunk++ })
	withSink := testing.AllocsPerRun(20, func() {
		if _, err := tm.SimulateBlock(bs, an, 0); err != nil {
			t.Fatal(err)
		}
	})
	if withSink == 0 {
		t.Error("traced run reports zero allocations — sink path not exercised")
	}
	if sunk == 0 {
		t.Error("sink never received events")
	}
}

// TestTimingJSONLTrace drives the timing model into a JSONL sink and
// decodes the trace back, checking the Figure 7 narrative survives the
// wire: prediction loads, CCB captures with operand states, verification
// verdicts, flushes and re-executions.
func TestTimingJSONLTrace(t *testing.T) {
	d := machine.W4
	_, bs, an := paperSetup(t, d)
	tm := core.NewTiming(d)
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	tm.Sink = sink
	if _, err := tm.SimulateBlock(bs, an, 0b01); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.DecodeJSONL(&buf)
	if err != nil {
		t.Fatalf("DecodeJSONL: %v", err)
	}
	kinds := map[string]int{}
	sawOperands := false
	sawMispredict := false
	for _, r := range recs {
		kinds[r.Kind]++
		if len(r.Operands) > 0 {
			sawOperands = true
			for _, o := range r.Operands {
				if _, ok := obs.OperandStateFromString(o.State); !ok {
					t.Errorf("bad operand state %q", o.State)
				}
			}
		}
		if r.Kind == obs.KindCheckIssue.String() && r.Correct != nil && !*r.Correct {
			sawMispredict = true
		}
	}
	for _, want := range []obs.Kind{obs.KindLdPredIssue, obs.KindCheckIssue,
		obs.KindBufferCCB, obs.KindCCEFlush, obs.KindCCEExecute} {
		if kinds[want.String()] == 0 {
			t.Errorf("trace missing kind %s (have %v)", want, kinds)
		}
	}
	if !sawOperands {
		t.Error("no CCB capture carried operand states")
	}
	if !sawMispredict {
		t.Error("mispredicted check not flagged on the wire")
	}
}

// TestSimulatorSinkEvents runs the dynamic dual-engine simulator with a
// collecting sink over a mixed hit/miss kernel and checks the full event
// taxonomy shows up.
func TestSimulatorSinkEvents(t *testing.T) {
	sim, _ := buildSim(t, resetKernel, true, machine.W4)
	sink := &collectSink{}
	sim.Sink = sink
	if _, err := sim.Run("main"); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sim.Mispredicts == 0 || sim.CCEExecuted == 0 {
		t.Fatalf("kernel not exercising mispredictions (mispredicts=%d cce=%d)",
			sim.Mispredicts, sim.CCEExecuted)
	}
	count := map[obs.Kind]int{}
	for i := range sink.events {
		count[sink.events[i].Kind]++
	}
	for _, want := range []obs.Kind{obs.KindInstrIssue, obs.KindLdPredIssue,
		obs.KindCheckIssue, obs.KindCheckResolve, obs.KindBufferCCB,
		obs.KindCCEFlush, obs.KindCCEExecute, obs.KindRegWrite} {
		if count[want] == 0 {
			t.Errorf("dynamic trace missing kind %s", want)
		}
	}
	// Cross-check the counted events against the run's own statistics.
	if got := count[obs.KindLdPredIssue]; int64(got) != sim.Predictions {
		t.Errorf("ldpred events %d != Predictions %d", got, sim.Predictions)
	}
	if got := count[obs.KindCCEExecute]; int64(got) != sim.CCEExecuted {
		t.Errorf("cce.execute events %d != CCEExecuted %d", got, sim.CCEExecuted)
	}
	if got := count[obs.KindCCEFlush]; int64(got) != sim.CCEFlushed {
		t.Errorf("cce.flush events %d != CCEFlushed %d", got, sim.CCEFlushed)
	}
}
