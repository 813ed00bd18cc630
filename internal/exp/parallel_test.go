package exp_test

import (
	"strings"
	"testing"

	"vliwvp/internal/exp"
	"vliwvp/internal/exp/cache"
	"vliwvp/internal/machine"
	"vliwvp/internal/predict"
	"vliwvp/internal/workload"
)

// The golden property of the parallel runner: rendered tables are
// byte-identical at any worker count, with a cold or a warm pipeline cache.
// Each renderer fans cells out in parallel but aggregates in input order,
// so goroutine scheduling must never leak into the output.

// goldenRunner builds a runner over a small benchmark subset with a private
// cache (tests must not warm the process-wide cache for each other).
func goldenRunner(jobs int, c *cache.Cache) *exp.Runner {
	r := exp.NewRunner(machine.W4)
	r.Benchmarks = workload.All()[:3]
	r.Jobs = jobs
	r.Cache = c
	return r
}

// renderAll renders every table the runner drives, concatenated.
func renderAll(t *testing.T, r *exp.Runner, full bool) string {
	t.Helper()
	t2, _, err := exp.RenderTable2(r)
	if err != nil {
		t.Fatalf("RenderTable2: %v", err)
	}
	t3, _, err := exp.RenderTable3(r)
	if err != nil {
		t.Fatalf("RenderTable3: %v", err)
	}
	f8, _, err := exp.RenderFigure8(r)
	if err != nil {
		t.Fatalf("RenderFigure8: %v", err)
	}
	out := t2.String() + t3.String() + f8.String()
	if full {
		sp, _, err := exp.RenderSpeedup(r)
		if err != nil {
			t.Fatalf("RenderSpeedup: %v", err)
		}
		bl, _, err := exp.RenderBaseline(r, exp.DefaultICache)
		if err != nil {
			t.Fatalf("RenderBaseline: %v", err)
		}
		out += sp.String() + bl.String()
	}
	return out
}

func TestParallelRenderingIsByteIdentical(t *testing.T) {
	full := !testing.Short()

	serial := renderAll(t, goldenRunner(1, cache.New()), full)
	if serial == "" {
		t.Fatal("serial rendering produced no output")
	}

	// Parallel with a cold cache: same bytes.
	coldCache := cache.New()
	parallelCold := renderAll(t, goldenRunner(8, coldCache), full)
	if parallelCold != serial {
		t.Errorf("jobs=8 cold-cache output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallelCold)
	}

	// Parallel again over the now-warm cache: still the same bytes.
	parallelWarm := renderAll(t, goldenRunner(8, coldCache), full)
	if parallelWarm != serial {
		t.Errorf("jobs=8 warm-cache output differs from serial:\n--- serial ---\n%s\n--- warm ---\n%s", serial, parallelWarm)
	}

	if coldCache.Len() == 0 {
		t.Error("pipeline cache stayed empty across rendering")
	}
}

// TestAblationParallelIsByteIdentical covers the sweep drivers (flat
// config×benchmark grids) at several worker counts.
func TestAblationParallelIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweeps are long; run without -short")
	}
	render := func(jobs int) string {
		th, err := exp.RenderThresholdSweep(machine.W4, jobs)
		if err != nil {
			t.Fatalf("RenderThresholdSweep(jobs=%d): %v", jobs, err)
		}
		pa, err := exp.RenderPredictorAblation(machine.W4, jobs)
		if err != nil {
			t.Fatalf("RenderPredictorAblation(jobs=%d): %v", jobs, err)
		}
		return th.String() + pa.String()
	}
	serial := render(1)
	parallel := render(8)
	if parallel != serial {
		t.Errorf("jobs=8 ablation output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestRunnerSharesFrontEndAcrossConfigs pins the cache keying: two runners
// differing only in back-end knobs (CCB capacity) share one front end,
// while a front-end knob (if-conversion) forces a distinct entry.
func TestRunnerSharesFrontEndAcrossConfigs(t *testing.T) {
	c := cache.New()
	b := workload.All()[0]

	r1 := goldenRunner(1, c)
	if _, err := r1.Prepare(b); err != nil {
		t.Fatal(err)
	}
	n1 := c.Len()
	if n1 == 0 {
		t.Fatal("Prepare populated no cache entries")
	}

	r2 := goldenRunner(1, c)
	r2.CCBCapacity = 4
	if _, err := r2.Prepare(b); err != nil {
		t.Fatal(err)
	}
	if n2 := c.Len(); n2 != n1 {
		t.Errorf("back-end knob grew the cache from %d to %d entries; front end not shared", n1, n2)
	}

	r3 := goldenRunner(1, c)
	r3.IfConvert = true
	if _, err := r3.Prepare(b); err != nil {
		t.Fatal(err)
	}
	if n3 := c.Len(); n3 <= n1 {
		t.Errorf("front-end knob did not add cache entries (still %d); keying too coarse", n3)
	}
}

// TestPredictorSweepSharesProgramProducts pins the keying of the
// predictor-independent products: two runners that differ only in
// predictor ("profiled" and "auto") profile separately — they meter
// different families — but share one interpreter run and one baseline
// simulation of the kernel, counted by the cache hook.
func TestPredictorSweepSharesProgramProducts(t *testing.T) {
	c := cache.New()
	ran := map[string]int{}
	c.Hook = func(key string, computed bool) {
		if !computed {
			return
		}
		switch {
		case strings.HasPrefix(key, "interp|"):
			ran["interp"]++
		case strings.HasPrefix(key, "base|"):
			ran["base"]++
		case strings.HasPrefix(key, "fe|") && strings.Contains(key, "/profile="):
			ran["profile"]++
		}
	}
	b := workload.All()[0]
	for _, spec := range []string{"profiled", "auto"} {
		cfg, err := predict.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		r := goldenRunner(1, c)
		r.Cfg.Predictor = cfg
		if _, err := r.Speedup(b); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
	if ran["profile"] != 2 || ran["interp"] != 1 || ran["base"] != 1 {
		t.Errorf("computed %v; want 2 profiles, 1 interpreter run, 1 baseline run", ran)
	}
}
