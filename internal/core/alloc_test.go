package core_test

// Allocation-regression gates for the decode-once engine: once warmed, a
// full Run and a batched RunAllInto must perform zero heap allocations
// with no sink attached — the pooled frames, block instances, event
// wheel, and predictor tables are all reused. cmd/benchdiff enforces the
// same property on the pinned bench grid (sim/decoded-grid); these tests
// catch a regression at `go test` time with an exact zero.

import (
	"testing"

	"vliwvp/internal/core"
	"vliwvp/internal/machine"
	"vliwvp/internal/predict"
	"vliwvp/internal/profile"
)

// allocKernel exercises predictions, mispredictions, CCE re-execution,
// and calls, but never prints: print buffers output and would charge the
// steady state with allocations that are the program's, not the engine's.
const allocKernel = `
var a[128]
var out[128]
func bump(x) {
	return x * 3 + 7
}
func main() {
	for var i = 0; i < 128; i = i + 1 {
		if i % 8 < 7 { a[i] = 5 } else { a[i] = (i * 2654435761) % 1000 }
	}
	var s = 0
	for var i = 0; i < 128; i = i + 1 {
		var x = a[i]
		var y = x * 3 + 7
		out[i] = y
		s = s + y
	}
	for var i = 0; i < 16; i = i + 1 {
		s = s + bump(out[i])
	}
	return s
}`

func TestSimulatorRunZeroAllocSteadyState(t *testing.T) {
	sim, _ := buildSim(t, allocKernel, true, machine.W4)
	// Two warm runs size every pool, slab, and predictor table.
	var want uint64
	for i := 0; i < 2; i++ {
		v, err := sim.Run("main")
		if err != nil {
			t.Fatal(err)
		}
		want = v
	}
	if sim.Mispredicts == 0 || sim.CCEExecuted == 0 {
		t.Fatalf("kernel under-exercises the engine: mispred=%d cce=%d",
			sim.Mispredicts, sim.CCEExecuted)
	}
	cycles := sim.Cycles
	allocs := testing.AllocsPerRun(5, func() {
		v, err := sim.Run("main")
		if err != nil || v != want {
			t.Fatalf("Run: v=%d err=%v", v, err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Run allocates %.1f objects over %d cycles, want 0",
			allocs, cycles)
	}
}

func TestSimulatorRunZeroAllocWithCache(t *testing.T) {
	// The memory hierarchy must preserve the steady-state guarantee for
	// every stock config: the tag arrays, prefetcher streams, and the
	// far-future miss latencies spilling past the event wheel all reuse
	// pooled storage.
	for _, mem := range machine.StockMem() {
		t.Run(mem.Name, func(t *testing.T) {
			sim, _ := buildSim(t, allocKernel, true, machine.W4)
			sim.MemCfg = mem
			var want uint64
			for i := 0; i < 2; i++ {
				v, err := sim.Run("main")
				if err != nil {
					t.Fatal(err)
				}
				want = v
			}
			allocs := testing.AllocsPerRun(5, func() {
				v, err := sim.Run("main")
				if err != nil || v != want {
					t.Fatalf("Run: v=%d err=%v", v, err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state Run with %s allocates %.1f objects, want 0", mem.Name, allocs)
			}
		})
	}
}

func TestSimulatorRunZeroAllocWithPredictors(t *testing.T) {
	// The predictor zoo and the confidence gate must preserve the
	// steady-state guarantee: the VTAGE tagged table, the LNV rings, and
	// the confidence counters all reuse pooled storage across runs when
	// the PredCfg binding is unchanged.
	for _, spec := range []string{
		"vtage", "lnv:depth=8", "fcm:conf=2", "vtage:conf=3,cbits=3", "profiled:conf=2",
	} {
		t.Run(spec, func(t *testing.T) {
			cfg, err := predict.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			sim, _ := buildSim(t, allocKernel, true, machine.W4)
			// Force every site onto the config's scheme so the forced
			// tables — not just the profile-chosen stride/FCM ones — are
			// exercised ("profiled" keeps the profile's choices).
			if sc, ok := profile.SchemeByName(cfg.SchemeName()); ok {
				for id := range sim.Schemes {
					sim.Schemes[id] = sc
				}
			}
			sim.PredCfg = cfg
			var want uint64
			for i := 0; i < 2; i++ {
				v, err := sim.Run("main")
				if err != nil {
					t.Fatal(err)
				}
				want = v
			}
			if cfg.Gating() && sim.Suppressed == 0 {
				t.Fatalf("gated config never suppressed an issue (pred=%d)", sim.Predictions)
			}
			allocs := testing.AllocsPerRun(5, func() {
				v, err := sim.Run("main")
				if err != nil || v != want {
					t.Fatalf("Run: v=%d err=%v", v, err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state Run with %s allocates %.1f objects, want 0", spec, allocs)
			}
		})
	}
}

func TestSimulatorRunZeroAllocWithBranch(t *testing.T) {
	// The branch-direction predictor must preserve the steady-state
	// guarantee: a stable Control.Branch pointer reuses the pooled TAGE /
	// bimodal tables (Reset clears them in place between runs), and the
	// mispredict flush walks retained pending-list and CCB storage.
	for _, spec := range []string{"taken", "nottaken", "bimodal", "tage", "tage:bits=4,hist=8,tables=2"} {
		t.Run(spec, func(t *testing.T) {
			bc, err := predict.ParseBranch(spec)
			if err != nil {
				t.Fatal(err)
			}
			sim, _ := buildSim(t, allocKernel, true, machine.W4)
			sim.Control = machine.ControlConfig{Branch: bc}
			var want uint64
			for i := 0; i < 2; i++ {
				v, err := sim.Run("main")
				if err != nil {
					t.Fatal(err)
				}
				want = v
			}
			if sim.BranchPredicts == 0 {
				t.Fatalf("kernel never exercised the branch predictor")
			}
			allocs := testing.AllocsPerRun(5, func() {
				v, err := sim.Run("main")
				if err != nil || v != want {
					t.Fatalf("Run: v=%d err=%v", v, err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state Run with branch=%s allocates %.1f objects, want 0", spec, allocs)
			}
		})
	}
}

func TestBatchRunAllZeroAllocSteadyState(t *testing.T) {
	sim, _ := buildSim(t, allocKernel, true, machine.W4)
	img := sim.Image()
	gated, err := predict.Parse("vtage:conf=2")
	if err != nil {
		t.Fatal(err)
	}
	sim2, _ := buildSim(t, allocKernel, true, machine.W4)
	// Two items bind the same image — the batch reuses one pooled
	// simulator across them, rebinding schemes per item. The third runs a
	// gated VTAGE config on its own image: a stable Pred pointer must
	// reuse the pooled tagged table and confidence counters.
	items := []core.BatchItem{
		{Name: "a", Img: img, Schemes: sim.Schemes},
		{Name: "b", Img: img, Schemes: sim.Schemes},
		{Name: "c", Img: sim2.Image(), Schemes: sim2.Schemes, Pred: gated},
	}
	batch := core.NewBatch()
	dst := make([]core.BatchResult, 0, len(items))
	for i := 0; i < 2; i++ {
		dst = batch.RunAllInto(dst[:0], items)
		for _, res := range dst {
			if res.Err != nil {
				t.Fatalf("%s: %v", res.Name, res.Err)
			}
		}
	}
	want := dst[0].Value
	allocs := testing.AllocsPerRun(5, func() {
		dst = batch.RunAllInto(dst[:0], items)
		if dst[0].Err != nil || dst[0].Value != want {
			t.Fatalf("batch: %+v", dst[0])
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Batch.RunAllInto allocates %.1f objects, want 0", allocs)
	}
}
