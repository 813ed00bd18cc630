package core_test

// The engine-diff suite: the decode-once engine (Simulator) run against
// the retained legacy stepper (LegacySimulator) over a generated corpus
// crossed with the conformance lattice. The two engines must agree on
// every observable — cycle counts, the full typed event stream, final
// architectural state, and every statistics counter — for every program.
// Any divergence is minimized with progen.Minimize before reporting, so a
// failure prints the smallest seed-reproducible program that splits the
// engines.
//
// Seed count: -diff-seeds N overrides; the default is 200 (40 under
// -short). CI runs the full sweep with the race detector on, which also
// exercises concurrent simulators sharing one immutable image.

import (
	"flag"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"vliwvp/internal/conform"
	"vliwvp/internal/core"
	"vliwvp/internal/obs"
	"vliwvp/internal/pipeline"
	"vliwvp/internal/progen"
)

var diffSeeds = flag.Int("diff-seeds", 0, "engine-diff corpus size (0 = 200, or 40 under -short)")

// recSink records every event as its narrated trace line prefixed with
// cycle and engine, so two streams compare as string slices. Events must
// be rendered inside the call — emitters reuse the backing storage.
type recSink struct{ lines []string }

func (r *recSink) Event(e *obs.Event) {
	r.lines = append(r.lines, fmt.Sprintf("%d %s %s", e.Cycle, e.Engine, obs.Narrate(e)))
}

// runDecoded executes the cell on the decode-once engine.
func runDecoded(cp *conform.CellPipeline, cell conform.Cell) (uint64, error, *core.Simulator, *recSink) {
	sim := cp.NewSim(cell)
	sink := &recSink{}
	sim.Sink = sink
	v, err := sim.Run("main")
	return v, err, sim, sink
}

// diffUntraced reruns the cell on a fresh decoded simulator with no sink —
// the path that keeps plain write-backs off the event wheel and skips
// idle wheel and CCE steps — and describes the first difference from the
// traced decoded run (tv, terr, tsim), or "".
func diffUntraced(cp *conform.CellPipeline, cell conform.Cell, tv uint64, terr error, tsim *core.Simulator) string {
	usim := cp.NewSim(cell)
	uv, uerr := usim.Run("main")
	if (uerr == nil) != (terr == nil) || (uerr != nil && uerr.Error() != terr.Error()) {
		return fmt.Sprintf("%s: untraced err=%v, traced err=%v", cell.Name, uerr, terr)
	}
	if uv != tv {
		return fmt.Sprintf("%s: untraced result %d != traced %d", cell.Name, uv, tv)
	}
	if usim.Cycles != tsim.Cycles {
		return fmt.Sprintf("%s: untraced Cycles %d != traced %d", cell.Name, usim.Cycles, tsim.Cycles)
	}
	if um, tm := usim.Metrics(), tsim.Metrics(); !reflect.DeepEqual(um, tm) {
		return fmt.Sprintf("%s: untraced metrics %v != traced %v", cell.Name, um, tm)
	}
	if msg := diffStrings(cell.Name, "untraced output", usim.Output, tsim.Output); msg != "" {
		return msg
	}
	if msg := diffU64(cell.Name, "untraced final regs", usim.FinalRegs(), tsim.FinalRegs()); msg != "" {
		return msg
	}
	return diffU64(cell.Name, "untraced memory", usim.Memory(), tsim.Memory())
}

// runLegacy executes the cell on the legacy stepper with the identical
// knob assignment conform.CellPipeline.NewSim applies. rec, when non-nil,
// is a decoded-engine load-latency trace to replay (the legacy engine has
// no cache model of its own).
func runLegacy(cp *conform.CellPipeline, cell conform.Cell, rec *core.MemTrace) (uint64, error, *core.LegacySimulator, *recSink, error) {
	sim, err := core.NewLegacySimulator(cp.Img.Prog, cp.Img.Sched, cell.D, cp.Schemes)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	if cell.CCBCapacity > 0 {
		sim.CCBCapacity = cell.CCBCapacity
	}
	sim.SerialRecovery = cell.SerialRecovery
	sim.Control = cell.Ctrl
	sim.PredCfg = cell.Pred
	sim.MemReplay = rec
	sink := &recSink{}
	sim.Sink = sink
	v, runErr := sim.Run("main")
	return v, runErr, sim, sink, nil
}

// diffCell runs one compiled cell on both engines, and untraced on the
// decoded engine, and returns a description of the first divergence, or "".
func diffCell(cp *conform.CellPipeline, cell conform.Cell) string {
	dv, derr, dsim, dsink := runDecoded(cp, cell)
	if msg := diffUntraced(cp, cell, dv, derr, dsim); msg != "" {
		return msg
	}
	lv, lerr, lsim, lsink, err := runLegacy(cp, cell, nil)
	if err != nil {
		return fmt.Sprintf("%s: legacy construction: %v", cell.Name, err)
	}
	if (derr == nil) != (lerr == nil) {
		return fmt.Sprintf("%s: decoded err=%v, legacy err=%v", cell.Name, derr, lerr)
	}
	if derr != nil {
		if derr.Error() != lerr.Error() {
			return fmt.Sprintf("%s: decoded err %q != legacy err %q", cell.Name, derr, lerr)
		}
		return "" // both refused identically; no state to compare
	}
	if dv != lv {
		return fmt.Sprintf("%s: result %d != legacy %d", cell.Name, dv, lv)
	}
	counters := []struct {
		name string
		d, l int64
	}{
		{"Cycles", dsim.Cycles, lsim.Cycles},
		{"Instrs", dsim.Instrs, lsim.Instrs},
		{"Ops", dsim.Ops, lsim.Ops},
		{"StallSync", dsim.StallSync, lsim.StallSync},
		{"StallScore", dsim.StallScore, lsim.StallScore},
		{"StallCCB", dsim.StallCCB, lsim.StallCCB},
		{"StallBar", dsim.StallBar, lsim.StallBar},
		{"StallRecovery", dsim.StallRecovery, lsim.StallRecovery},
		{"StallRedirect", dsim.StallRedirect, lsim.StallRedirect},
		{"BranchPredicts", dsim.BranchPredicts, lsim.BranchPredicts},
		{"BranchMispredicts", dsim.BranchMispredicts, lsim.BranchMispredicts},
		{"BranchFlushed", dsim.BranchFlushed, lsim.BranchFlushed},
		{"BranchSquashed", dsim.BranchSquashed, lsim.BranchSquashed},
		{"CCEExecuted", dsim.CCEExecuted, lsim.CCEExecuted},
		{"CCEFlushed", dsim.CCEFlushed, lsim.CCEFlushed},
		{"Predictions", dsim.Predictions, lsim.Predictions},
		{"Mispredicts", dsim.Mispredicts, lsim.Mispredicts},
		{"Suppressed", dsim.Suppressed, lsim.Suppressed},
		{"SuppressedWrong", dsim.SuppressedWrong, lsim.SuppressedWrong},
		{"MaxCCBOccupancy", int64(dsim.MaxCCBOccupancy), int64(lsim.MaxCCBOccupancy)},
	}
	for _, c := range counters {
		if c.d != c.l {
			return fmt.Sprintf("%s: %s %d != legacy %d", cell.Name, c.name, c.d, c.l)
		}
	}
	if msg := diffStrings(cell.Name, "output", dsim.Output, lsim.Output); msg != "" {
		return msg
	}
	if msg := diffU64(cell.Name, "final regs", dsim.FinalRegs(), lsim.FinalRegs()); msg != "" {
		return msg
	}
	if msg := diffU64(cell.Name, "memory", dsim.Memory(), lsim.Memory()); msg != "" {
		return msg
	}
	return diffStrings(cell.Name, "event stream", dsink.lines, lsink.lines)
}

func diffStrings(cell, what string, d, l []string) string {
	if len(d) != len(l) {
		return fmt.Sprintf("%s: %s length %d != legacy %d", cell, what, len(d), len(l))
	}
	for i := range d {
		if d[i] != l[i] {
			return fmt.Sprintf("%s: %s[%d] %q != legacy %q", cell, what, i, d[i], l[i])
		}
	}
	return ""
}

func diffU64(cell, what string, d, l []uint64) string {
	if len(d) != len(l) {
		return fmt.Sprintf("%s: %s length %d != legacy %d", cell, what, len(d), len(l))
	}
	for i := range d {
		if d[i] != l[i] {
			return fmt.Sprintf("%s: %s[%d] %d != legacy %d", cell, what, i, d[i], l[i])
		}
	}
	return ""
}

// diffSpec compiles one generated program and diffs the engines across
// every lattice cell. Cells whose transform produces invalid IR are the
// conformance suite's problem, not an engine divergence — both engines
// get no program — so they are skipped here. Cells with a memory
// hierarchy diff through the record-and-replay protocol (the legacy
// engine has no cache model).
func diffSpec(spec progen.Spec, lattice []conform.Cell) string {
	src := progen.Render(spec)
	prog, prof, err := conform.Compile(src)
	if err != nil {
		return fmt.Sprintf("front end: %v", err)
	}
	for _, cell := range lattice {
		cp, err := conform.PrepareCell(prog, prof, cell)
		if err != nil {
			if pipeline.IsValidation(err) {
				continue
			}
			return fmt.Sprintf("%s: prepare: %v", cell.Name, err)
		}
		var msg string
		if cell.Mem.Flat() {
			msg = diffCell(cp, cell)
		} else {
			msg = diffMemCell(cp, cell)
		}
		if msg != "" {
			return msg
		}
	}
	return ""
}

// TestEngineDiff pins the decoded engine to the legacy engine over the
// full corpus × lattice grid.
func TestEngineDiff(t *testing.T) {
	n := *diffSeeds
	if n <= 0 {
		n = 200
		if testing.Short() {
			n = 40
		}
	}
	lattice := conform.DefaultLattice()
	for i := 0; i < n; i++ {
		seed := int64(1 + i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := progen.Generate(seed, progen.Options{})
			msg := diffSpec(spec, lattice)
			if msg == "" {
				return
			}
			min := progen.Minimize(spec, func(s progen.Spec) bool {
				return diffSpec(s, lattice) != ""
			})
			t.Fatalf("engines diverge at seed %d: %s\nminimized divergence: %s\nminimized program:\n%s",
				seed, msg, diffSpec(min, lattice), progen.Render(min))
		})
	}
}

// TestEngineDiffPredictors pins the decoded engine to the legacy engine
// across the predictor lattice: every zoo scheme and the confidence gate
// must agree on cycles, counters (including Suppressed/SuppressedWrong),
// the typed event stream (including the suppressed-issue narration and
// the Gated resolve flag via Narrate parity), and architectural state.
func TestEngineDiffPredictors(t *testing.T) {
	n := 24
	if testing.Short() {
		n = 8
	}
	lattice := conform.PredLattice()
	for i := 0; i < n; i++ {
		seed := int64(1 + i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := progen.Generate(seed, progen.Options{})
			msg := diffSpec(spec, lattice)
			if msg == "" {
				return
			}
			min := progen.Minimize(spec, func(s progen.Spec) bool {
				return diffSpec(s, lattice) != ""
			})
			t.Fatalf("engines diverge at seed %d: %s\nminimized divergence: %s\nminimized program:\n%s",
				seed, msg, diffSpec(min, lattice), progen.Render(min))
		})
	}
}

// TestEngineDiffBranches pins the decoded engine to the legacy engine
// across the branch lattice: every stock branch-predictor scheme, the
// flush/redirect latency variants, and the combined value+branch cells
// must agree on cycles, the branch counters (BranchPredicts,
// BranchMispredicts, BranchFlushed, StallRedirect), the typed event
// stream (branch.mispredict and branch.flush narration parity), and
// architectural state.
func TestEngineDiffBranches(t *testing.T) {
	n := 24
	if testing.Short() {
		n = 8
	}
	lattice := conform.BranchLattice()
	for i := 0; i < n; i++ {
		seed := int64(1 + i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := progen.Generate(seed, progen.Options{})
			msg := diffSpec(spec, lattice)
			if msg == "" {
				return
			}
			min := progen.Minimize(spec, func(s progen.Spec) bool {
				return diffSpec(s, lattice) != ""
			})
			t.Fatalf("engines diverge at seed %d: %s\nminimized divergence: %s\nminimized program:\n%s",
				seed, msg, diffSpec(min, lattice), progen.Render(min))
		})
	}
}

// TestEngineDiffCatchesFlushElision is the suite's teeth check for the
// branch-flush semantics: an injected fault that elides the mispredict
// flush on the decoded engine only (FaultBranchFlushElide) is invisible
// to single-engine architectural invariants — a flushed-but-correct site
// re-executes with identical values — but MUST split the engines on some
// seed (counters or event stream). If no seed diverges, the engine-diff
// suite has lost its power over flush behavior.
func TestEngineDiffCatchesFlushElision(t *testing.T) {
	lattice := conform.BranchLattice()
	diffOne := func(spec progen.Spec) string {
		src := progen.Render(spec)
		prog, prof, err := conform.Compile(src)
		if err != nil {
			return ""
		}
		for _, cell := range lattice {
			if !cell.Ctrl.Dynamic() {
				continue // no branch predictor, nothing to elide
			}
			cp, err := conform.PrepareCell(prog, prof, cell)
			if err != nil {
				continue
			}
			sim := cp.NewSim(cell)
			sim.FaultBranchFlushElide = true
			msink := &memFilterSink{}
			sim.Sink = msink
			sink := &msink.recSink
			var rec *core.MemTrace
			if !cell.Mem.Flat() {
				rec = &core.MemTrace{}
				sim.MemRec = rec
			}
			dv, derr := sim.Run("main")
			lv, lerr, lsim, lsink, err := runLegacy(cp, cell, rec)
			if err != nil || (derr == nil) != (lerr == nil) {
				return fmt.Sprintf("%s: run split: derr=%v lerr=%v err=%v", cell.Name, derr, lerr, err)
			}
			if derr != nil {
				continue
			}
			if dv != lv || sim.Cycles != lsim.Cycles ||
				sim.BranchFlushed != lsim.BranchFlushed ||
				sim.Mispredicts != lsim.Mispredicts {
				return fmt.Sprintf("%s: fault visible (cycles %d vs %d, flushed %d vs %d)",
					cell.Name, sim.Cycles, lsim.Cycles, sim.BranchFlushed, lsim.BranchFlushed)
			}
			if msg := diffStrings(cell.Name, "event stream", sink.lines, lsink.lines); msg != "" {
				return msg
			}
		}
		return ""
	}
	for i := 0; i < 60; i++ {
		spec := progen.Generate(int64(1+i), progen.Options{})
		if diffOne(spec) != "" {
			return // the fault split the engines: the suite has teeth
		}
	}
	t.Fatal("FaultBranchFlushElide never split the engines across 60 seeds; engine-diff has no teeth for branch flush")
}

// TestEngineDiffImageShared binds many decoded simulators to one image
// concurrently — the immutability contract DecodeImage documents. Under
// -race this is the suite's data-race probe for shared images.
func TestEngineDiffImageShared(t *testing.T) {
	spec := progen.Generate(7, progen.Options{})
	prog, prof, err := conform.Compile(progen.Render(spec))
	if err != nil {
		t.Fatal(err)
	}
	cell := conform.DefaultLattice()[1] // w4-dual
	cp, err := conform.PrepareCell(prog, prof, cell)
	if err != nil {
		t.Fatal(err)
	}
	want, werr, _, _ := runDecoded(cp, cell)
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				sim := cp.NewSim(cell)
				v, err := sim.Run("main")
				if (err == nil) != (werr == nil) || (err == nil && v != want) {
					errs[w] = fmt.Sprintf("worker %d rep %d: got (%d, %v), want (%d, %v)",
						w, rep, v, err, want, werr)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Error(e)
		}
	}
}
