package core_test

// The memory-hierarchy engine-diff: the decoded engine runs each cell of
// the memory lattice recording its per-access load latencies and fetch
// penalties (Simulator.MemRec); the legacy oracle — which has no cache
// model — replays the recorded trace (LegacySimulator.MemReplay). The two
// runs must then agree on every observable: cycles, counters, the typed
// event stream (minus the decoded-only mem.hit/mem.miss/mem.prefetch
// events), final registers, memory, and output. That pins the tentpole
// contract from both sides: the hierarchy changes per-access latency and
// nothing else, and the decoded engine's scheduling of a dynamic latency
// is exactly the legacy machine's scheduling of the same latency.
//
// Seed count: -mem-seeds N overrides; the default is 40 (10 under
// -short). CI's memory-conformance job runs 200 under -race.

import (
	"flag"
	"fmt"
	"testing"

	"vliwvp/internal/conform"
	"vliwvp/internal/core"
	"vliwvp/internal/machine"
	"vliwvp/internal/obs"
	"vliwvp/internal/pipeline"
	"vliwvp/internal/progen"
)

var memSeeds = flag.Int("mem-seeds", 0, "memory engine-diff corpus size (0 = 40, or 10 under -short)")

// memFilterSink records events like recSink but drops the mem-hierarchy
// kinds only the decoded engine emits (the oracle replays latencies, it
// does not model the cache that produced them).
type memFilterSink struct{ recSink }

func (m *memFilterSink) Event(e *obs.Event) {
	switch e.Kind {
	case obs.KindMemHit, obs.KindMemMiss, obs.KindMemPrefetch:
		return
	}
	m.recSink.Event(e)
}

// diffMemCell runs one compiled cell on the decoded engine (recording),
// again untraced, and on the legacy engine (replaying) and describes the
// first divergence.
func diffMemCell(cp *conform.CellPipeline, cell conform.Cell) string {
	dsim := cp.NewSim(cell)
	rec := &core.MemTrace{}
	dsim.MemRec = rec
	dsink := &memFilterSink{}
	dsim.Sink = dsink
	dv, derr := dsim.Run("main")
	if msg := diffUntraced(cp, cell, dv, derr, dsim); msg != "" {
		return msg
	}

	lsim, err := core.NewLegacySimulator(cp.Img.Prog, cp.Img.Sched, cell.D, cp.Schemes)
	if err != nil {
		return fmt.Sprintf("%s: legacy construction: %v", cell.Name, err)
	}
	if cell.CCBCapacity > 0 {
		lsim.CCBCapacity = cell.CCBCapacity
	}
	lsim.SerialRecovery = cell.SerialRecovery
	lsim.Control = cell.Ctrl
	lsim.PredCfg = cell.Pred
	lsim.MemReplay = rec
	lsink := &recSink{}
	lsim.Sink = lsink
	lv, lerr := lsim.Run("main")

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
		{"StallIFetch", dsim.StallIFetch, lsim.StallIFetch},
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
	if got := int64(len(rec.Loads)); got != dsim.DHits+dsim.DMisses {
		return fmt.Sprintf("%s: recorded %d load latencies, counters say %d accesses",
			cell.Name, got, dsim.DHits+dsim.DMisses)
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

func diffMemSpec(spec progen.Spec, lattice []conform.Cell) string {
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
		if msg := diffMemCell(cp, cell); msg != "" {
			return msg
		}
	}
	return ""
}

// TestMemEngineDiff pins record-and-replay equivalence over the corpus ×
// memory lattice grid.
func TestMemEngineDiff(t *testing.T) {
	n := *memSeeds
	if n <= 0 {
		n = 40
		if testing.Short() {
			n = 10
		}
	}
	lattice := conform.MemLattice()
	for i := 0; i < n; i++ {
		seed := int64(1 + i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := progen.Generate(seed, progen.Options{})
			msg := diffMemSpec(spec, lattice)
			if msg == "" {
				return
			}
			min := progen.Minimize(spec, func(s progen.Spec) bool {
				return diffMemSpec(s, lattice) != ""
			})
			t.Fatalf("engines diverge at seed %d: %s\nminimized divergence: %s\nminimized program:\n%s",
				seed, msg, diffMemSpec(min, lattice), progen.Render(min))
		})
	}
}

// TestMemFlatGolden is the flat-equivalence fixture: binding the explicit
// flat config must be byte-identical to binding no config at all — same
// cycles, same counters, same event stream, no mem events — on both a
// hand-written kernel and generated programs.
func TestMemFlatGolden(t *testing.T) {
	check := func(t *testing.T, name string, run func(mem *machine.MemConfig) (*core.Simulator, *recSink)) {
		nilSim, nilSink := run(nil)
		flatSim, flatSink := run(machine.MemFlat)
		if flatSim.Cycles != nilSim.Cycles {
			t.Errorf("%s: flat config took %d cycles, nil config %d", name, flatSim.Cycles, nilSim.Cycles)
		}
		if flatSim.DHits+flatSim.DMisses+flatSim.IMisses+flatSim.StallIFetch != 0 {
			t.Errorf("%s: flat config charged mem counters: hits=%d misses=%d imisses=%d ifetch=%d",
				name, flatSim.DHits, flatSim.DMisses, flatSim.IMisses, flatSim.StallIFetch)
		}
		if msg := diffStrings(name, "event stream", flatSink.lines, nilSink.lines); msg != "" {
			t.Error(msg)
		}
	}

	t.Run("kernel", func(t *testing.T) {
		sim, _ := buildSim(t, allocKernel, true, machine.W4)
		check(t, "kernel", func(mem *machine.MemConfig) (*core.Simulator, *recSink) {
			sink := &recSink{}
			sim.MemCfg = mem
			sim.Sink = sink
			if _, err := sim.Run("main"); err != nil {
				t.Fatal(err)
			}
			sim.Sink = nil
			return sim, sink
		})
	})

	for _, seed := range []int64{3, 11, 29} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			spec := progen.Generate(seed, progen.Options{})
			prog, prof, err := conform.Compile(progen.Render(spec))
			if err != nil {
				t.Fatal(err)
			}
			cell := conform.Cell{Name: "w4", D: machine.W4}
			cp, err := conform.PrepareCell(prog, prof, cell)
			if err != nil {
				t.Fatal(err)
			}
			check(t, cell.Name, func(mem *machine.MemConfig) (*core.Simulator, *recSink) {
				cell.Mem = mem
				sim := cp.NewSim(cell)
				sink := &recSink{}
				sim.Sink = sink
				if _, err := sim.Run("main"); err != nil {
					t.Fatal(err)
				}
				return sim, sink
			})
		})
	}
}

// strideKernel marches a trained stride straight through the end of its
// array, so a confirmed prefetch stream issues fills past the last heap
// word — the timing-only contract says that must be harmless.
const strideKernel = `
var a[512]
func main() {
	for var i = 0; i < 512; i = i + 1 { a[i] = i * 3 }
	var s = 0
	for var i = 0; i < 512; i = i + 1 { s = s + a[i] }
	return s
}`

func TestPrefetchPastHeapEnd(t *testing.T) {
	sim, _ := buildSim(t, strideKernel, true, machine.W4)
	want, err := sim.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	for _, mem := range []*machine.MemConfig{machine.MemL1PF, machine.MemL2PF} {
		sim.MemCfg = mem
		v, err := sim.Run("main")
		if err != nil {
			t.Fatalf("%s: %v", mem.Name, err)
		}
		if v != want {
			t.Errorf("%s: result %d, flat model got %d", mem.Name, v, want)
		}
		if sim.PrefIssued == 0 {
			t.Errorf("%s: stride walk issued no prefetches", mem.Name)
		}
	}
}
