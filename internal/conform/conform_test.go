package conform

import (
	"flag"
	"runtime"
	"strings"
	"testing"

	"vliwvp/internal/core"
)

// -seeds sets the per-run program budget; CI pins it to 200 in the
// conformance job, local runs default smaller.
var seedBudget = flag.Int("seeds", 48, "number of generated programs the conformance suite checks")

// TestConformance is the suite's main entry: seedBudget generated
// programs, each checked across the full configuration lattice against
// all four metamorphic invariants.
func TestConformance(t *testing.T) {
	n := *seedBudget
	if testing.Short() && n > 8 {
		n = 8
	}
	fails, stats, err := Run(1, n, Options{Jobs: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	for _, f := range fails {
		t.Errorf("%s", f.Report())
	}

	// Vacuity guards: a passing run must actually have exercised the
	// machinery the invariants are about.
	t.Logf("conformance stats: %+v", stats)
	if stats.Programs != n {
		t.Errorf("checked %d programs, want %d", stats.Programs, n)
	}
	if stats.Predictions == 0 {
		t.Error("no load was ever predicted across the whole corpus")
	}
	if stats.Mispredicts == 0 {
		t.Error("no prediction ever missed: the recovery machinery went untested")
	}
	if stats.CCEExecuted == 0 {
		t.Error("the Compensation Code Engine never re-executed an operation")
	}
	if stats.CCEFlushed == 0 {
		t.Error("the Compensation Code Engine never flushed a correct entry")
	}
	if stats.MonotoneSweeps == 0 {
		t.Error("no program ran the CCB capacity sweep")
	}
	if !testing.Short() {
		if stats.PressureRuns == 0 {
			t.Error("no sweep run ever completed below the speculative window")
		}
		if stats.CCBStallCells == 0 {
			t.Error("no run ever stalled on a full CCB: the capacity limit went untested")
		}
	}
}

// -mem-seeds sets the memory-hierarchy conformance budget; CI's memory
// job pins it to 200 under -race.
var memSeedBudget = flag.Int("mem-seeds", 24, "number of generated programs checked across the memory lattice")

// TestMemConformance runs the invariant battery across the memory
// lattice: every cache configuration — multi-level, prefetching,
// I-cached, serial-recovery, CCB-starved — must stay architecturally
// byte-identical to the interpreter and keep its event stream, counters,
// and metrics snapshot mutually consistent; only cycles may move.
func TestMemConformance(t *testing.T) {
	n := *memSeedBudget
	if testing.Short() && n > 6 {
		n = 6
	}
	fails, stats, err := Run(1, n, Options{Jobs: runtime.GOMAXPROCS(0), Lattice: MemLattice()})
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	for _, f := range fails {
		t.Errorf("%s", f.Report())
	}

	// Vacuity guards: the lattice must actually have exercised the cache
	// model — misses, I-cache pressure, prefetch issue, and recovery
	// machinery under dynamic load latency.
	t.Logf("memory conformance stats: %+v", stats)
	if stats.Programs != n {
		t.Errorf("checked %d programs, want %d", stats.Programs, n)
	}
	if stats.MemMisses == 0 {
		t.Error("no demand load ever missed: the hierarchy went untested")
	}
	if stats.MemIMisses == 0 {
		t.Error("no instruction fetch ever missed the I-cache")
	}
	if stats.MemPrefetches == 0 {
		t.Error("the stride-stream prefetcher never issued a fill")
	}
	if stats.Mispredicts == 0 {
		t.Error("no prediction ever missed under a cache model: recovery with dynamic latency went untested")
	}
	if stats.CCEExecuted == 0 {
		t.Error("the Compensation Code Engine never re-executed under a cache model")
	}
}

// -pred-seeds sets the predictor-axis conformance budget; CI's predictor
// job pins it to 200 under -race.
var predSeedBudget = flag.Int("pred-seeds", 24, "number of generated programs checked across the predictor lattice")

// TestPredConformance runs the invariant battery across the predictor
// lattice: every stock scheme, gated and ungated, plus the alias-prone
// tiny VTAGE table and the serial-recovery gated machine must stay
// architecturally byte-identical to the interpreter with a mutually
// consistent event stream, counters, and snapshot; only cycles and the
// prediction/suppression mix may move.
func TestPredConformance(t *testing.T) {
	n := *predSeedBudget
	if testing.Short() && n > 6 {
		n = 6
	}
	fails, stats, err := Run(1, n, Options{Jobs: runtime.GOMAXPROCS(0), Lattice: PredLattice()})
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	for _, f := range fails {
		t.Errorf("%s", f.Report())
	}

	// Vacuity guards: the lattice must actually have exercised the zoo and
	// the gate — real trusted predictions, real suppressions, and real
	// gate true-positives (suppressed issues that were in fact wrong), or
	// the mis-gating fault injection below proves nothing.
	t.Logf("predictor conformance stats: %+v", stats)
	if stats.Programs != n {
		t.Errorf("checked %d programs, want %d", stats.Programs, n)
	}
	if stats.Predictions == 0 {
		t.Error("no load was ever predicted across the predictor lattice")
	}
	if stats.Mispredicts == 0 {
		t.Error("no trusted prediction ever missed: recovery under the zoo went untested")
	}
	if stats.Suppressed == 0 {
		t.Error("the confidence gate never suppressed an issue")
	}
	if stats.SuppressedWrong == 0 {
		t.Error("no suppressed issue was ever wrong: the gate's repair path went untested")
	}
	if stats.CCEExecuted == 0 {
		t.Error("the Compensation Code Engine never re-executed under the predictor lattice")
	}
}

// -branch-seeds sets the control-speculation conformance budget; CI's
// branch job pins it to 200 under -race.
var branchSeedBudget = flag.Int("branch-seeds", 24, "number of generated programs checked across the branch lattice")

// TestBranchConformance runs the invariant battery across the branch
// lattice: every direction-predictor scheme — static, bimodal, TAGE,
// shrunken-table TAGE, serial-recovery, CCB-starved, gated, and the
// cache-backed cells whose long check latencies keep speculation in
// flight across block boundaries — must stay architecturally
// byte-identical to the interpreter with mutually consistent events,
// counters, and snapshot; only timing may move with the control config.
func TestBranchConformance(t *testing.T) {
	n := *branchSeedBudget
	if testing.Short() && n > 6 {
		n = 6
	}
	fails, stats, err := Run(1, n, Options{Jobs: runtime.GOMAXPROCS(0), Lattice: BranchLattice()})
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	for _, f := range fails {
		t.Errorf("%s", f.Report())
	}

	// Vacuity guards: the lattice must actually have exercised the
	// control-speculation model — real predictions, real mispredicts, and
	// real wrong-path flushes of buffered speculation — or the
	// flush-elision fault injection below proves nothing.
	t.Logf("branch conformance stats: %+v", stats)
	if stats.Programs != n {
		t.Errorf("checked %d programs, want %d", stats.Programs, n)
	}
	if stats.BranchPredicts == 0 {
		t.Error("no conditional branch was ever direction-predicted")
	}
	if stats.BranchMispredicts == 0 {
		t.Error("no branch prediction ever missed: the flush machinery went untested")
	}
	if stats.BranchFlushed == 0 {
		t.Error("no mispredict ever flushed in-flight speculation: the flush path is vacuous")
	}
	if stats.Mispredicts == 0 {
		t.Error("no value prediction ever missed under the branch lattice")
	}
	if stats.CCEExecuted == 0 {
		t.Error("the Compensation Code Engine never re-executed under the branch lattice")
	}
}

// TestConformanceCatchesInjectedMisgateBug proves the predictor axis has
// teeth: with the confidence-gating logic deliberately broken (a
// suppressed-and-wrong site treated as verified correct, so dependents
// keep the stale predicted value), some seed must produce an
// architectural divergence with a minimized reproduction.
func TestConformanceCatchesInjectedMisgateBug(t *testing.T) {
	opt := Options{
		Lattice: PredLattice(),
		Tamper:  func(s *core.Simulator) { s.FaultConfidenceMisgate = true },
	}
	var caught *Failure
	for seed := int64(1); seed <= 40 && caught == nil; seed++ {
		f, _, err := CheckSeed(seed, opt)
		if err != nil {
			t.Fatalf("seed %d: harness error: %v", seed, err)
		}
		caught = f
	}
	if caught == nil {
		t.Fatal("injected confidence mis-gating went undetected across 40 seeds")
	}
	if caught.Invariant != "arch" {
		t.Errorf("injected bug reported as %q, want \"arch\"", caught.Invariant)
	}
	if !strings.Contains(caught.Cell, "gated") {
		t.Errorf("divergence caught on cell %q; mis-gating can only bite gated cells", caught.Cell)
	}
	if caught.Source == "" || caught.Seed == 0 {
		t.Errorf("failure not reproducible: %+v", caught)
	}
	t.Logf("caught with seed %d on cell %s", caught.Seed, caught.Cell)
}

// TestConformanceCatchesInjectedFlushElide proves the branch axis has
// teeth: with the mispredict flush skipped, verified CCB entries the
// squash should have retired drain through the CCE in the mispredict's
// own cycle. The fault changes no architectural state, so only the event
// self-consistency check can catch it, with a minimized reproduction.
func TestConformanceCatchesInjectedFlushElide(t *testing.T) {
	opt := Options{
		Lattice: BranchLattice(),
		Tamper:  func(s *core.Simulator) { s.FaultBranchFlushElide = true },
	}
	var caught *Failure
	for seed := int64(1); seed <= 40 && caught == nil; seed++ {
		f, _, err := CheckSeed(seed, opt)
		if err != nil {
			t.Fatalf("seed %d: harness error: %v", seed, err)
		}
		caught = f
	}
	if caught == nil {
		t.Fatal("injected branch-flush elision went undetected across 40 seeds")
	}
	if caught.Invariant != "metrics" || !strings.Contains(caught.Detail, "cce.flush") {
		t.Errorf("injected bug reported as %q: %s; want the same-cycle cce.flush metrics violation",
			caught.Invariant, caught.Detail)
	}
	if caught.Cell == "w4-branch-nil" {
		t.Errorf("divergence caught on cell %q, which has no branch predictor", caught.Cell)
	}
	if caught.Source == "" || caught.Seed == 0 {
		t.Errorf("failure not reproducible: %+v", caught)
	}
	t.Logf("caught with seed %d on cell %s", caught.Seed, caught.Cell)
}

// TestConformanceCatchesInjectedCCEBug proves the suite's teeth: with a
// deliberately corrupted CCE write-back datapath, some seed must produce
// an architectural divergence, reported with the seed and a minimized
// program.
func TestConformanceCatchesInjectedCCEBug(t *testing.T) {
	opt := Options{
		Tamper: func(s *core.Simulator) { s.FaultCCEWritebackXor = 1 << 6 },
	}
	var caught *Failure
	var seed int64
	for seed = 1; seed <= 40 && caught == nil; seed++ {
		f, _, err := CheckSeed(seed, opt)
		if err != nil {
			t.Fatalf("seed %d: harness error: %v", seed, err)
		}
		caught = f
	}
	if caught == nil {
		t.Fatal("injected CCE write-back corruption went undetected across 40 seeds")
	}
	if caught.Invariant != "arch" {
		t.Errorf("injected bug reported as %q, want \"arch\"", caught.Invariant)
	}
	rep := caught.Report()
	if !strings.Contains(rep, "-progen-seed") || caught.Seed == 0 {
		t.Errorf("report missing reproducible seed:\n%s", rep)
	}
	if !strings.Contains(rep, "func main()") {
		t.Errorf("report missing the minimized program:\n%s", rep)
	}
	if caught.Source == "" {
		t.Error("failure carries no minimized source")
	}
	t.Logf("caught with seed %d:\n%s", caught.Seed, rep)
}

// TestPerfectReplayBeatsTrained spot-checks the record/replay plumbing on
// one seed directly: CheckSeed must pass honestly (no tamper), and the
// stats must show mispredictions existed for at least one seed, meaning
// the perfect-replay comparison was non-trivial.
func TestCheckSeedCleanPasses(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		f, _, err := CheckSeed(seed, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if f != nil {
			t.Fatalf("seed %d failed:\n%s", seed, f.Report())
		}
	}
}
