package exp

// Golden-equivalence suite: pins the byte-exact output of the compile flow
// — every experiment table, the full speculated schedule of every
// benchmark, and the pinned bench-grid cycle counts — against fixtures
// generated BEFORE the pass-manager refactor. Any pipeline rewiring that
// changes a single byte of a schedule or a table fails here.
//
// Regenerate fixtures deliberately with:
//
//	go test ./internal/exp -run TestGoldenEquivalence -update-golden

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vliwvp/internal/exp/cache"
	"vliwvp/internal/machine"
	"vliwvp/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the golden-equivalence fixtures from the current pipeline output")

// goldenRunner is the pinned configuration every fixture renders under:
// the paper's 4-wide machine, four workers (tables must be identical at
// any parallelism), and a private cache so other tests cannot warm or
// poison the pipeline state this suite observes.
func goldenRunner() *Runner {
	r := NewRunner(machine.W4)
	r.Jobs = 4
	r.Cache = cache.New()
	return r
}

func TestGoldenEquivalenceTables(t *testing.T) {
	r := goldenRunner()
	var sb strings.Builder
	add := func(name string, f func() (fmt.Stringer, error)) {
		tab, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&sb, "%s\n", tab)
	}
	add("table2", func() (fmt.Stringer, error) { tab, _, err := RenderTable2(r); return tab, err })
	add("table3", func() (fmt.Stringer, error) { tab, _, err := RenderTable3(r); return tab, err })
	add("fig8", func() (fmt.Stringer, error) { tab, _, err := RenderFigure8(r); return tab, err })
	add("table4", func() (fmt.Stringer, error) { tab, _, err := RenderTable4(r.Jobs); return tab, err })
	add("baseline", func() (fmt.Stringer, error) { tab, _, err := RenderBaseline(r); return tab, err })
	add("speedup", func() (fmt.Stringer, error) { tab, _, err := RenderSpeedup(r); return tab, err })
	add("threshold", func() (fmt.Stringer, error) { return RenderThresholdSweep(r.D, r.Jobs) })
	add("predictors", func() (fmt.Stringer, error) { return RenderPredictorAblation(r.D, r.Jobs) })
	add("ccb", func() (fmt.Stringer, error) { return RenderCCBSweep(r.D, r.Jobs) })
	add("regions", func() (fmt.Stringer, error) { return RenderRegionAblation(r.D, r.Jobs) })
	add("hyperblocks", func() (fmt.Stringer, error) { return RenderHyperblockMatrix(r.D, r.Jobs) })
	add("disambig", func() (fmt.Stringer, error) { return RenderDisambiguationAblation(r.D, r.Jobs) })
	checkGolden(t, "tables.txt", sb.String())
}

// TestGoldenEquivalencePredictorZoo pins the dynamic predictor-zoo
// ablation — per scheme per benchmark: trusted predictions, misses,
// the confidence gate's suppression counters, accuracy, coverage, and
// speedup — in its own fixture so the static tables.txt fixture stays
// byte-identical to its pre-zoo state.
func TestGoldenEquivalencePredictorZoo(t *testing.T) {
	r := goldenRunner()
	tab, err := RenderPredictorZoo(r.D, r.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "predzoo.txt", tab.String()+"\n")
}

// TestGoldenEquivalenceCombined pins the unified control+value speculation
// ablation (branch-predictor axis × value-predictor axis) and checks the
// acceptance teeth directly: every dynamic-branch configuration must report
// branch activity and at least one must flush in-flight LdPred/CCB state —
// an all-zero Flushes column would mean the flush path went vacuous.
func TestGoldenEquivalenceCombined(t *testing.T) {
	r := goldenRunner()
	tab, err := RenderCombined(r.D, r.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	var flushes, brPreds int64
	for _, row := range tab.Rows {
		if row[0] == "static" || row[2] != "(all)" {
			continue
		}
		var f, p int64
		fmt.Sscanf(row[6], "%d", &f)
		fmt.Sscanf(row[3], "%d", &p)
		if p == 0 {
			t.Errorf("%s/%s: dynamic branch config made no predictions", row[0], row[1])
		}
		flushes += f
		brPreds += p
	}
	if brPreds == 0 {
		t.Fatal("no dynamic branch rows in the combined table")
	}
	if flushes == 0 {
		t.Error("combined table's Flushes column is all zero: mispredicted branches squashed no in-flight state")
	}
	checkGolden(t, "combined.txt", tab.String()+"\n")
}

func TestGoldenEquivalenceSchedules(t *testing.T) {
	r := goldenRunner()
	var sb strings.Builder
	for _, b := range workload.All() {
		ps, res, err := r.SpecSchedule(b)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		fmt.Fprintf(&sb, "== %s ==\n", b.Name)
		for _, f := range res.Prog.Funcs {
			fs := ps.Funcs[f.Name]
			fmt.Fprintf(&sb, "func %s\n", f.Name)
			for i, bs := range fs.Blocks {
				fmt.Fprintf(&sb, "b%d len=%d\n", i, bs.Length())
				for c, in := range bs.Instrs {
					fmt.Fprintf(&sb, "  c%d wait=%#x:", c, in.WaitBits)
					for _, op := range in.Ops {
						fmt.Fprintf(&sb, " [%s]", op)
					}
					sb.WriteByte('\n')
				}
			}
		}
	}
	checkGolden(t, "schedules.txt", sb.String())
}

func TestGoldenEquivalenceBenchGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("bench grid is the slow fixture; run without -short")
	}
	rec, err := RunBenchGrid(machine.W4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, e := range rec.Entries {
		// Only simulated cycle counts are deterministic; wall time and
		// allocation figures move with hardware and Go releases.
		fmt.Fprintf(&sb, "%s cycles=%d\n", e.Name, e.Cycles)
	}
	checkGolden(t, "benchgrid.txt", sb.String())
}

// checkGolden compares got against the named fixture, or rewrites it under
// -update-golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (generate with -update-golden): %v", path, err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: first divergence at line %d:\n  got:  %q\n  want: %q\n(got %d lines, want %d)",
				name, i+1, gl[i], wl[i], len(gl), len(wl))
		}
	}
	t.Fatalf("%s: output differs in length: got %d lines, want %d", name, len(gl), len(wl))
}
