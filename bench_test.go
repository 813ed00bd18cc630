// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index), plus micro-benchmarks of the
// main pipeline components. The experiment benchmarks report the reproduced
// headline numbers via b.ReportMetric so `go test -bench=.` doubles as the
// reproduction run.
package vliwvp_test

import (
	"io"
	"math"
	"sync"
	"testing"

	"vliwvp"
	"vliwvp/internal/core"
	"vliwvp/internal/ddg"
	"vliwvp/internal/exp"
	"vliwvp/internal/interp"
	"vliwvp/internal/machine"
	"vliwvp/internal/obs"
	"vliwvp/internal/predict"
	"vliwvp/internal/profile"
	"vliwvp/internal/sched"
	"vliwvp/internal/speculate"
	"vliwvp/internal/workload"
)

// prepared caches the expensive profile+transform pipeline per benchmark
// and machine so each experiment benchmark times only its own analysis.
var (
	prepMu   sync.Mutex
	prepData = map[string]*exp.BenchData{}
)

func prepared(b *testing.B, r *exp.Runner, w *workload.Benchmark) *exp.BenchData {
	b.Helper()
	prepMu.Lock()
	defer prepMu.Unlock()
	key := r.D.Name + "/" + w.Name
	if bd, ok := prepData[key]; ok {
		return bd
	}
	bd, err := r.Prepare(w)
	if err != nil {
		b.Fatal(err)
	}
	prepData[key] = bd
	return bd
}

// BenchmarkTable2 regenerates Table 2: the fraction of execution time in
// speculated blocks with all predictions correct (best) / incorrect (worst).
func BenchmarkTable2(b *testing.B) {
	r := exp.NewRunner(machine.W4)
	var data []*exp.BenchData
	for _, w := range workload.All() {
		data = append(data, prepared(b, r, w))
	}
	b.ResetTimer()
	var best, worst float64
	for i := 0; i < b.N; i++ {
		best, worst = 0, 0
		for _, bd := range data {
			row := exp.Table2(bd)
			best += row.BestFrac
			worst += row.WorstFrac
		}
	}
	b.ReportMetric(best/8, "bestfrac/avg")
	b.ReportMetric(worst/8, "worstfrac/avg")
}

// BenchmarkTable3 regenerates Table 3: effective schedule length of
// speculated blocks as a fraction of the original, via the dual-engine
// timing model.
func BenchmarkTable3(b *testing.B) {
	r := exp.NewRunner(machine.W4)
	var data []*exp.BenchData
	for _, w := range workload.All() {
		data = append(data, prepared(b, r, w))
	}
	b.ResetTimer()
	var best, worst float64
	for i := 0; i < b.N; i++ {
		best, worst = 0, 0
		for _, bd := range data {
			row, err := exp.Table3(bd)
			if err != nil {
				b.Fatal(err)
			}
			best += row.Best
			worst += row.Worst
		}
	}
	b.ReportMetric(best/8, "bestratio/avg")
	b.ReportMetric(worst/8, "worstratio/avg")
}

// BenchmarkTable4 regenerates Table 4: best-case metrics at widths 4 vs 8,
// reporting the aggregate improvement at each width (the paper's claim is
// that the 8-wide machine improves more).
func BenchmarkTable4(b *testing.B) {
	r4 := exp.NewRunner(machine.W4)
	r8 := exp.NewRunner(machine.W8)
	var d4, d8 []*exp.BenchData
	for _, w := range workload.All() {
		d4 = append(d4, prepared(b, r4, w))
		d8 = append(d8, prepared(b, r8, w))
	}
	b.ResetTimer()
	var imp4, imp8 float64
	for i := 0; i < b.N; i++ {
		imp4, imp8 = 0, 0
		for j := range d4 {
			t4, err := exp.Table3(d4[j])
			if err != nil {
				b.Fatal(err)
			}
			t8, err := exp.Table3(d8[j])
			if err != nil {
				b.Fatal(err)
			}
			imp4 += 1 - t4.Best
			imp8 += 1 - t8.Best
		}
	}
	b.ReportMetric(imp4/8, "improvement/4wide")
	b.ReportMetric(imp8/8, "improvement/8wide")
}

// BenchmarkFigure8 regenerates Figure 8: the distribution of
// schedule-length change over executed speculated blocks (all-correct
// case), reporting the dominant 1-4 cycle improvement share.
func BenchmarkFigure8(b *testing.B) {
	r := exp.NewRunner(machine.W4)
	var data []*exp.BenchData
	for _, w := range workload.All() {
		data = append(data, prepared(b, r, w))
	}
	b.ResetTimer()
	var oneToFour, degraded, total float64
	for i := 0; i < b.N; i++ {
		oneToFour, degraded, total = 0, 0, 0
		for _, bd := range data {
			h, err := exp.Figure8(bd)
			if err != nil {
				b.Fatal(err)
			}
			degraded += h.Buckets[0].Count
			oneToFour += h.Buckets[2].Count + h.Buckets[3].Count
			total += h.Total
		}
	}
	b.ReportMetric(oneToFour/total, "improve1to4/frac")
	b.ReportMetric(degraded/total, "degraded/frac")
}

// BenchmarkBaselineComparison regenerates the §3 comparison against the
// static compensation-block scheme of [4]: compensation time fraction,
// schedule inflation, code growth, and instruction-cache pollution.
func BenchmarkBaselineComparison(b *testing.B) {
	r := exp.NewRunner(machine.W4)
	var data []*exp.BenchData
	for _, w := range workload.All() {
		data = append(data, prepared(b, r, w))
	}
	b.ResetTimer()
	var compBase, compOurs, missBase, missOurs float64
	for i := 0; i < b.N; i++ {
		compBase, compOurs, missBase, missOurs = 0, 0, 0, 0
		for _, bd := range data {
			row, err := r.CompareBaseline(bd)
			if err != nil {
				b.Fatal(err)
			}
			compBase += row.CompFracBase
			compOurs += row.CompFracOurs
			missBase += row.ICacheMissBase
			missOurs += row.ICacheMissOurs
		}
	}
	b.ReportMetric(compBase/8, "comptime/base")
	b.ReportMetric(compOurs/8, "comptime/ours")
	b.ReportMetric(missBase/8, "icachemiss/base")
	b.ReportMetric(missOurs/8, "icachemiss/ours")
}

// BenchmarkDynamicSpeedup runs the end-to-end dynamic dual-engine
// simulation with live predictors over every benchmark (E7) and reports the
// geometric-mean speedup.
func BenchmarkDynamicSpeedup(b *testing.B) {
	r := exp.NewRunner(machine.W4)
	b.ResetTimer()
	var geo float64
	for i := 0; i < b.N; i++ {
		_, rows, err := exp.RenderSpeedup(r)
		if err != nil {
			b.Fatal(err)
		}
		geo = 1
		for _, row := range rows {
			geo *= row.Speedup
		}
		geo = math.Pow(geo, 1.0/8)
	}
	b.ReportMetric(geo, "speedup/geomean")
}

// ---- Component micro-benchmarks ----

// BenchmarkInterpreter measures sequential interpretation throughput.
func BenchmarkInterpreter(b *testing.B) {
	prog, err := workload.Compress.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var ops int64
	for i := 0; i < b.N; i++ {
		m := interp.New(prog)
		if _, err := m.RunMain(); err != nil {
			b.Fatal(err)
		}
		ops = m.Steps
	}
	b.ReportMetric(float64(ops)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkScheduler measures list-scheduling throughput over all blocks of
// the largest benchmark.
func BenchmarkScheduler(b *testing.B) {
	prog, err := workload.Vortex.Compile()
	if err != nil {
		b.Fatal(err)
	}
	d := machine.W4
	nops := 0
	for _, f := range prog.Funcs {
		for _, blk := range f.Blocks {
			nops += len(blk.Ops)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range prog.Funcs {
			for _, blk := range f.Blocks {
				g := ddg.Build(blk, d.Latency, ddg.Options{})
				sched.ScheduleBlock(blk, g, d)
			}
		}
	}
	b.ReportMetric(float64(nops)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkPredictorStride measures stride-predictor throughput.
func BenchmarkPredictorStride(b *testing.B) {
	p := predict.NewStride()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict()
		p.Update(uint64(i * 8))
	}
}

// BenchmarkPredictorFCM measures FCM throughput.
func BenchmarkPredictorFCM(b *testing.B) {
	p := predict.NewFCM(predict.DefaultFCMOrder, predict.DefaultFCMTableBits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict()
		p.Update(uint64(i % 17))
	}
}

// BenchmarkTimingModel measures per-block dual-engine timing throughput on
// the paper's worked example.
func BenchmarkTimingModel(b *testing.B) {
	d := machine.W4
	prog, f, err := core.PaperExample()
	if err != nil {
		b.Fatal(err)
	}
	l4, l7 := core.PaperExampleLoadIDs(f)
	prof := &profile.Profile{
		Loads: map[profile.LoadKey]*profile.LoadProfile{
			{Func: "example", OpID: l4}: {Count: 1000, StrideRate: 0.9},
			{Func: "example", OpID: l7}: {Count: 1000, StrideRate: 0.9},
		},
		BlockFreq: map[profile.BlockKey]int64{{Func: "example", Block: 0}: 1000},
	}
	cfg := speculate.DefaultConfig(d)
	cfg.CriticalOnly = false
	res, err := speculate.Transform(prog, prof, cfg)
	if err != nil {
		b.Fatal(err)
	}
	blk := res.Prog.Func("example").Blocks[0]
	g := speculate.BuildGraph(blk, d, ddg.Options{})
	bs := sched.ScheduleBlock(blk, g, d)
	an, err := core.Analyze(blk)
	if err != nil {
		b.Fatal(err)
	}
	tm := core.NewTiming(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tm.SimulateBlock(bs, an, uint32(i)&3); err != nil {
			b.Fatal(err)
		}
	}
}

// timingSetup builds the timing model over the paper's worked example for
// the trace-cost benchmarks.
func timingSetup(b *testing.B) (*core.Timing, *sched.BlockSched, *core.BlockAnalysis) {
	b.Helper()
	d := machine.W4
	prog, f, err := core.PaperExample()
	if err != nil {
		b.Fatal(err)
	}
	l4, l7 := core.PaperExampleLoadIDs(f)
	prof := &profile.Profile{
		Loads: map[profile.LoadKey]*profile.LoadProfile{
			{Func: "example", OpID: l4}: {Count: 1000, StrideRate: 0.9},
			{Func: "example", OpID: l7}: {Count: 1000, StrideRate: 0.9},
		},
		BlockFreq: map[profile.BlockKey]int64{{Func: "example", Block: 0}: 1000},
	}
	cfg := speculate.DefaultConfig(d)
	cfg.CriticalOnly = false
	res, err := speculate.Transform(prog, prof, cfg)
	if err != nil {
		b.Fatal(err)
	}
	blk := res.Prog.Func("example").Blocks[0]
	g := speculate.BuildGraph(blk, d, ddg.Options{})
	bs := sched.ScheduleBlock(blk, g, d)
	an, err := core.Analyze(blk)
	if err != nil {
		b.Fatal(err)
	}
	return core.NewTiming(d), bs, an
}

// BenchmarkTimingModelNoSink is the zero-alloc acceptance benchmark: with
// no event sink attached the timing model must report 0 allocs/op — the
// typed-event layer costs nothing when disabled.
func BenchmarkTimingModelNoSink(b *testing.B) {
	tm, bs, an := timingSetup(b)
	// Warm the reusable scratch before measuring.
	for mask := uint32(0); mask < 4; mask++ {
		if _, err := tm.SimulateBlock(bs, an, mask); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tm.SimulateBlock(bs, an, uint32(i)&3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorRunNoSink extends the zero-alloc acceptance property
// to the full decode-once engine: a warmed simulator must report 0
// allocs/op for an entire end-to-end Run with no sink — pooled frames,
// block instances, the event wheel, and predictor tables all recycle. The
// benchmark asserts the zero (via testing.AllocsPerRun) before timing, so
// a pooling regression fails `go test -bench` rather than drifting.
func BenchmarkSimulatorRunNoSink(b *testing.B) {
	sim := decodedCompressSim(b)
	if allocs := testing.AllocsPerRun(2, func() {
		if _, err := sim.Run("main"); err != nil {
			b.Fatal(err)
		}
	}); allocs != 0 {
		b.Fatalf("steady-state Run allocates %.1f objects over %d cycles, want 0", allocs, sim.Cycles)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run("main"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sim.Cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkBatchRunAllNoSink measures batched corpus execution over one
// image and asserts the same steady-state zero-allocation property for
// Batch.RunAllInto.
func BenchmarkBatchRunAllNoSink(b *testing.B) {
	sim := decodedCompressSim(b)
	items := []core.BatchItem{
		{Name: "a", Img: sim.Image(), Schemes: sim.Schemes},
		{Name: "b", Img: sim.Image(), Schemes: sim.Schemes},
	}
	batch := core.NewBatch()
	dst := make([]core.BatchResult, 0, len(items))
	run := func() {
		dst = batch.RunAllInto(dst[:0], items)
		for i := range dst {
			if dst[i].Err != nil {
				b.Fatalf("%s: %v", dst[i].Name, dst[i].Err)
			}
		}
	}
	run() // warm the pooled simulator
	if allocs := testing.AllocsPerRun(2, run); allocs != 0 {
		b.Fatalf("steady-state RunAllInto allocates %.1f objects, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// decodedCompressSim wires the speculative compress kernel onto the
// decode-once engine and warms its pools (compress never prints, so the
// steady state is allocation-free).
func decodedCompressSim(b *testing.B) *core.Simulator {
	b.Helper()
	r := exp.NewRunner(machine.W4)
	sim, err := r.SpecSim(workload.ByName("compress"))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sim.Run("main"); err != nil {
			b.Fatal(err)
		}
	}
	return sim
}

// BenchmarkTimingModelJSONLSink measures the enabled-path cost of the
// typed event layer for comparison against BenchmarkTimingModelNoSink.
func BenchmarkTimingModelJSONLSink(b *testing.B) {
	tm, bs, an := timingSetup(b)
	sink := obs.NewJSONLSink(io.Discard)
	tm.Sink = sink
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tm.SimulateBlock(bs, an, uint32(i)&3); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := sink.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDualEngineSim measures full dynamic simulation throughput
// (cycles simulated per second) on the compress kernel with speculation.
func BenchmarkDualEngineSim(b *testing.B) {
	sys, err := vliwvp.NewSystem(4)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := sys.CompileBenchmark("compress")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := prog.Profile()
	if err != nil {
		b.Fatal(err)
	}
	spec, err := prog.Speculate(prof)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := spec.Simulate()
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkValueProfiling measures the profiling pass.
func BenchmarkValueProfiling(b *testing.B) {
	prog, err := workload.M88ksim.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.Collect(prog, "main"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpeculateTransform measures the speculation pass.
func BenchmarkSpeculateTransform(b *testing.B) {
	prog, err := workload.Vortex.Compile()
	if err != nil {
		b.Fatal(err)
	}
	prof, err := profile.Collect(prog, "main")
	if err != nil {
		b.Fatal(err)
	}
	cfg := speculate.DefaultConfig(machine.W4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := speculate.Transform(prog, prof, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation benchmarks (design-choice studies from DESIGN.md) ----

// BenchmarkAblationThreshold sweeps the load-selection threshold and
// reports the site count and misprediction share at the paper's 0.65 point.
func BenchmarkAblationThreshold(b *testing.B) {
	var sites float64
	var share float64
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(machine.W4)
		r.Cfg.Threshold = 0.65
		sites, share = 0, 0
		var preds, miss float64
		for _, w := range workload.All() {
			bd, err := r.Prepare(w)
			if err != nil {
				b.Fatal(err)
			}
			sites += float64(len(bd.Res.Sites))
			for bk, blk := range bd.Blocks {
				for mask, n := range bd.Out.MaskCounts[bk] {
					for j := 0; j < blk.NumSites; j++ {
						preds += float64(n)
						if mask&(1<<uint(j)) == 0 {
							miss += float64(n)
						}
					}
				}
			}
		}
		if preds > 0 {
			share = miss / preds
		}
	}
	b.ReportMetric(sites, "sites")
	b.ReportMetric(share, "mispredictshare")
}

// BenchmarkAblationRegions measures the end-to-end gain from superblock
// region formation (the paper's anticipated extension) on two benchmarks.
func BenchmarkAblationRegions(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		base := exp.NewRunner(machine.W4)
		reg := exp.NewRunner(machine.W4)
		reg.Regions = true
		var cb, cr int64
		for _, w := range []*workload.Benchmark{workload.Compress, workload.Vortex} {
			rb, err := base.Speedup(w)
			if err != nil {
				b.Fatal(err)
			}
			rr, err := reg.Speedup(w)
			if err != nil {
				b.Fatal(err)
			}
			cb += rb.SpecCycles
			cr += rr.SpecCycles
		}
		gain = float64(cb) / float64(cr)
	}
	b.ReportMetric(gain, "regiongain")
}

// BenchmarkAblationPredictors compares the hybrid profile against its
// components by selected-site count.
func BenchmarkAblationPredictors(b *testing.B) {
	var hybrid, stride, fcm float64
	for i := 0; i < b.N; i++ {
		count := func(mask func(lp *profile.LoadProfile)) float64 {
			r := exp.NewRunner(machine.W4)
			total := 0.0
			for _, w := range []*workload.Benchmark{workload.Compress, workload.Li, workload.M88ksim} {
				prog, err := w.Compile()
				if err != nil {
					b.Fatal(err)
				}
				prof, err := profile.Collect(prog, "main")
				if err != nil {
					b.Fatal(err)
				}
				for _, lp := range prof.Loads {
					mask(lp)
				}
				bd, err := r.PrepareWithProfile(w, prog, prof)
				if err != nil {
					b.Fatal(err)
				}
				total += float64(len(bd.Res.Sites))
			}
			return total
		}
		hybrid = count(func(lp *profile.LoadProfile) {})
		stride = count(func(lp *profile.LoadProfile) { lp.FCMRate = 0 })
		fcm = count(func(lp *profile.LoadProfile) { lp.StrideRate = 0 })
	}
	b.ReportMetric(hybrid, "sites/hybrid")
	b.ReportMetric(stride, "sites/stride")
	b.ReportMetric(fcm, "sites/fcm")
}
