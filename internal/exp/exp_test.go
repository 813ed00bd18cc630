package exp_test

import (
	"testing"

	"vliwvp/internal/exp"
	"vliwvp/internal/machine"
	"vliwvp/internal/workload"
)

// prepare caches BenchData per benchmark+machine across tests in this
// package (Prepare runs two profiling passes; no need to repeat it).
var prepCache = map[string]*exp.BenchData{}

func prepare(t *testing.T, r *exp.Runner, b *workload.Benchmark) *exp.BenchData {
	t.Helper()
	key := r.D.Name + "/" + b.Name
	if bd, ok := prepCache[key]; ok {
		return bd
	}
	bd, err := r.Prepare(b)
	if err != nil {
		t.Fatalf("Prepare(%s): %v", b.Name, err)
	}
	prepCache[key] = bd
	return bd
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	// Paper Table 2: roughly half of execution time sits in blocks where
	// every prediction hit; all-wrong blocks are a very small fraction.
	r := exp.NewRunner(machine.W4)
	var bestSum, worstSum float64
	for _, b := range workload.All() {
		bd := prepare(t, r, b)
		row := exp.Table2(bd)
		if row.BestFrac < 0 || row.BestFrac > 1 || row.WorstFrac < 0 || row.WorstFrac > 1 {
			t.Errorf("%s: fractions out of range: %+v", b.Name, row)
		}
		if row.BestFrac == 0 {
			t.Errorf("%s: no execution time in all-correct speculated blocks", b.Name)
		}
		if row.WorstFrac > row.BestFrac {
			t.Errorf("%s: worst fraction %v exceeds best %v — predictors above threshold should mostly hit",
				b.Name, row.WorstFrac, row.BestFrac)
		}
		bestSum += row.BestFrac
		worstSum += row.WorstFrac
	}
	avgBest, avgWorst := bestSum/8, worstSum/8
	if avgBest < 0.25 {
		t.Errorf("average best fraction %v, want a substantial share (paper ~0.5)", avgBest)
	}
	if avgWorst > 0.10 {
		t.Errorf("average worst fraction %v, want small (paper: 'very small fraction')", avgWorst)
	}
}

func TestTable3ShapeMatchesPaper(t *testing.T) {
	// Paper Table 3: best case reduces schedule length ~20% on average;
	// worst case stays close to 1.0 thanks to the parallel compensation
	// engine.
	r := exp.NewRunner(machine.W4)
	var bestSum float64
	improved := 0
	for _, b := range workload.All() {
		bd := prepare(t, r, b)
		row, err := exp.Table3(bd)
		if err != nil {
			t.Fatal(err)
		}
		if row.Best > 1.001 {
			t.Errorf("%s: best-case ratio %v > 1 — prediction lengthened the schedule", b.Name, row.Best)
		}
		if row.Best < 0.3 {
			t.Errorf("%s: best-case ratio %v implausibly low", b.Name, row.Best)
		}
		if row.Worst < row.Best-1e-9 {
			t.Errorf("%s: worst %v better than best %v", b.Name, row.Worst, row.Best)
		}
		if row.Worst > 1.35 {
			t.Errorf("%s: worst-case ratio %v — compensation is not overlapping", b.Name, row.Worst)
		}
		if row.Measured < row.Best-1e-9 || row.Measured > row.Worst+1e-9 {
			t.Errorf("%s: measured %v outside [best %v, worst %v]", b.Name, row.Measured, row.Best, row.Worst)
		}
		if row.Best < 0.99 {
			improved++
		}
		bestSum += row.Best
	}
	if improved < 6 {
		t.Errorf("only %d/8 benchmarks improved their best-case schedules", improved)
	}
	if avg := bestSum / 8; avg > 0.95 {
		t.Errorf("average best-case ratio %v, want visible reduction (paper ~0.8)", avg)
	}
}

func TestFigure8ShapeMatchesPaper(t *testing.T) {
	// Paper Figure 8: a large percentage of executed blocks improve by 1-4
	// cycles in the all-correct case.
	r := exp.NewRunner(machine.W4)
	overall := 0.0
	oneToFour := 0.0
	for _, b := range workload.All() {
		bd := prepare(t, r, b)
		h, err := exp.Figure8(bd)
		if err != nil {
			t.Fatal(err)
		}
		overall += h.Total
		// Buckets: degraded, 0, 1-2, 3-4, 5-8, >8.
		oneToFour += h.Buckets[2].Count + h.Buckets[3].Count
		if h.Total == 0 {
			t.Errorf("%s: empty distribution", b.Name)
		}
	}
	if frac := oneToFour / overall; frac < 0.25 {
		t.Errorf("1-4 cycle improvement share = %v, want the dominant improvement range", frac)
	}
}

func TestTable4WiderMachineGainsMore(t *testing.T) {
	// Paper Table 4 / §3: "the improvement in block schedule length is
	// higher for the wider machine."
	r4 := exp.NewRunner(machine.W4)
	r8 := exp.NewRunner(machine.W8)
	var imp4, imp8 float64
	for _, b := range workload.All() {
		bd4 := prepare(t, r4, b)
		bd8 := prepare(t, r8, b)
		t3a, err := exp.Table3(bd4)
		if err != nil {
			t.Fatal(err)
		}
		t3b, err := exp.Table3(bd8)
		if err != nil {
			t.Fatal(err)
		}
		imp4 += 1 - t3a.Best
		imp8 += 1 - t3b.Best
	}
	if imp8 < imp4 {
		t.Errorf("aggregate 8-wide improvement %v < 4-wide %v", imp8, imp4)
	}
}

func TestBaselineComparisonShape(t *testing.T) {
	// §3: the static-compensation-block scheme spends more time in
	// compensation than ours on every benchmark, grows the code image, and
	// never beats our effective schedule.
	r := exp.NewRunner(machine.W4)
	for _, b := range workload.All() {
		bd := prepare(t, r, b)
		row, err := r.CompareBaseline(bd)
		if err != nil {
			t.Fatal(err)
		}
		if row.CompFracBase < row.CompFracOurs-1e-9 {
			t.Errorf("%s: baseline comp %v < ours %v", b.Name, row.CompFracBase, row.CompFracOurs)
		}
		if row.CodeGrowthInstrs <= 0 {
			t.Errorf("%s: baseline added no code", b.Name)
		}
		if row.SchedRatioBase < row.SchedRatioOurs-1e-9 {
			t.Errorf("%s: baseline schedule ratio %v beats ours %v", b.Name, row.SchedRatioBase, row.SchedRatioOurs)
		}
		if row.ICacheMissBase < row.ICacheMissOurs-1e-9 {
			t.Errorf("%s: baseline icache miss %v below ours %v — compensation blocks must not improve locality",
				b.Name, row.ICacheMissBase, row.ICacheMissOurs)
		}
	}
}

func TestDynamicSpeedupEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full dynamic simulation in -short mode")
	}
	// One integer and one FP benchmark end to end (the full sweep is
	// BenchmarkDynamicSpeedup).
	r := exp.NewRunner(machine.W4)
	for _, b := range []*workload.Benchmark{workload.M88ksim, workload.Hydro2d} {
		row, err := r.Speedup(b)
		if err != nil {
			t.Fatal(err)
		}
		if row.Speedup <= 1.0 {
			t.Errorf("%s: dynamic speedup %.3f, want > 1", b.Name, row.Speedup)
		}
		if row.Predictions == 0 {
			t.Errorf("%s: no dynamic predictions", b.Name)
		}
		t.Logf("%s: %.3fx (%d -> %d cycles), %d/%d mispredicts",
			b.Name, row.Speedup, row.BaseCycles, row.SpecCycles, row.Mispredicts, row.Predictions)
	}
}

func TestRenderersProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("renderers re-prepare all benchmarks")
	}
	r := exp.NewRunner(machine.W4)
	tb2, rows2, err := exp.RenderTable2(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 8 || len(tb2.Rows) != 9 { // 8 benchmarks + average
		t.Errorf("table2: %d rows rendered", len(tb2.Rows))
	}
	if tb2.String() == "" {
		t.Error("empty rendering")
	}
	tb8, h, err := exp.RenderFigure8(r)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total == 0 || len(tb8.Rows) != 9 {
		t.Errorf("figure8 render wrong: total %v, rows %d", h.Total, len(tb8.Rows))
	}
}

func TestSerialBaselineCorrectAndNeverFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic simulations")
	}
	// The serial-recovery machine ([4]) must produce identical
	// architectural results (SpeedupSerial validates against the
	// interpreter internally) and can never beat the dual-engine machine:
	// its recovery blocks serialize in front of the main engine.
	r := exp.NewRunner(machine.W4)
	for _, w := range []*workload.Benchmark{workload.Compress, workload.Vortex, workload.M88ksim} {
		serial, err := r.SpeedupSerial(w)
		if err != nil {
			t.Fatal(err)
		}
		ours, err := r.Speedup(w)
		if err != nil {
			t.Fatal(err)
		}
		if serial.SpecCycles < ours.SpecCycles {
			t.Errorf("%s: serial recovery %d cycles beats parallel %d", w.Name, serial.SpecCycles, ours.SpecCycles)
		}
		if serial.Mispredicts == 0 {
			t.Errorf("%s: serial run saw no mispredictions; comparison vacuous", w.Name)
		}
		t.Logf("%s: serial %d vs parallel %d cycles (%.2f%% saved), %d recoveries",
			w.Name, serial.SpecCycles, ours.SpecCycles,
			100*(1-float64(ours.SpecCycles)/float64(serial.SpecCycles)), serial.Mispredicts)
	}
}
