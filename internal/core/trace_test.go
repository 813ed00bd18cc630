package core_test

import (
	"strings"
	"testing"

	"vliwvp/internal/core"
	"vliwvp/internal/machine"
	"vliwvp/internal/obs"
)

// TestTraceNarratesFigure7States checks that the timing trace reproduces
// the paper's Figure 7 narrative: operand states in PN/RN/C/R notation,
// verification verdicts, flushes, and recomputations.
func TestTraceNarratesFigure7States(t *testing.T) {
	d := machine.W4
	_, bs, an := paperSetup(t, d)
	tm := core.NewTiming(d)
	var lines []string
	tm.Sink = obs.TextFunc(func(cycle int64, line string) { lines = append(lines, line) })

	// Second load mispredicted (the paper's Figure 3(c)/7 case).
	if _, err := tm.SimulateBlock(bs, an, 0b01); err != nil {
		t.Fatal(err)
	}
	all := strings.Join(lines, "\n")
	for _, want := range []string{
		"predicted value loaded", // LdPred issue
		"buffered in CCB",        // speculative op capture
		":RN",                    // recompute-not-verified operand state
		"MISPREDICT",             // verification verdict
		"CCE flush",              // correctly speculated ops flushed
		"CCE execute",            // mis-speculated ops re-executed
		"verification completes", // check timing
	} {
		if !strings.Contains(all, want) {
			t.Errorf("trace missing %q:\n%s", want, all)
		}
	}
	// The all-correct case must narrate no recomputation.
	lines = nil
	if _, err := tm.SimulateBlock(bs, an, an.FullMask()); err != nil {
		t.Fatal(err)
	}
	all = strings.Join(lines, "\n")
	if strings.Contains(all, "CCE execute") {
		t.Error("all-correct trace shows recomputation")
	}
	if strings.Contains(all, "MISPREDICT") {
		t.Error("all-correct trace shows a misprediction")
	}
}

// TestCompensationOutlivesBlock demonstrates the architecture's central
// overlap property: on a misprediction, the Compensation Code Engine keeps
// working after the VLIW Engine has issued the block's last instruction
// (DrainCycle reaches past Length) instead of serializing in front of it.
func TestCompensationOutlivesBlock(t *testing.T) {
	d := machine.W8
	_, bs, an := paperSetup(t, d)
	tm := core.NewTiming(d)
	r, err := tm.SimulateBlock(bs, an, 0) // everything mispredicted
	if err != nil {
		t.Fatal(err)
	}
	if r.DrainCycle < r.Length-1 {
		t.Errorf("CCE drained at %d, before the block's last issue at %d — no overlap visible",
			r.DrainCycle, r.Length-1)
	}
	t.Logf("block length %d, CCE drained at cycle %d (%d ops re-executed)",
		r.Length, r.DrainCycle, r.CCEExecuted)
}
