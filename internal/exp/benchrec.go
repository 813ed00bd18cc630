package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"vliwvp/internal/core"
	"vliwvp/internal/ddg"
	"vliwvp/internal/machine"
	"vliwvp/internal/predict"
	"vliwvp/internal/profile"
	"vliwvp/internal/sched"
	"vliwvp/internal/speculate"
	"vliwvp/internal/workload"
)

// BenchSchema identifies the perf-record format version; cmd/benchdiff
// refuses to compare records with mismatched schemas.
const BenchSchema = "vliwvp-bench/v1"

// BenchEntry is one pinned benchmark's measurement. Cycles (simulated) and
// AllocsPerOp are deterministic for a given Go release, so CI gates on
// them; WallNS is hardware-dependent and is compared only when explicitly
// asked.
type BenchEntry struct {
	Name        string `json:"name"`
	Cycles      int64  `json:"cycles,omitempty"`
	WallNS      int64  `json:"wall_ns"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
}

// BenchRecord is the machine-readable perf trajectory artifact
// (BENCH_*.json): the pinned micro+experiment benchmark grid under one
// machine description.
type BenchRecord struct {
	Schema    string       `json:"schema"`
	GoVersion string       `json:"go_version"`
	Machine   string       `json:"machine"`
	Count     int          `json:"count"`
	Entries   []BenchEntry `json:"entries"`
}

// WriteJSON renders the record.
func (r *BenchRecord) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadBenchRecord parses a perf record and checks its schema.
func ReadBenchRecord(rd io.Reader) (*BenchRecord, error) {
	var rec BenchRecord
	if err := json.NewDecoder(rd).Decode(&rec); err != nil {
		return nil, err
	}
	if rec.Schema != BenchSchema {
		return nil, fmt.Errorf("unsupported bench schema %q (want %q)", rec.Schema, BenchSchema)
	}
	return &rec, nil
}

// Entry returns the named entry, or nil.
func (r *BenchRecord) Entry(name string) *BenchEntry {
	for i := range r.Entries {
		if r.Entries[i].Name == name {
			return &r.Entries[i]
		}
	}
	return nil
}

// measure runs f count times and keeps the best (minimum) wall time and
// per-run allocation figures — min is the standard noise-robust statistic
// for a deterministic workload. Allocation counts come from MemStats
// deltas, so measured sections must not run concurrent allocators.
func measure(count int, f func() error) (BenchEntry, error) {
	if count < 1 {
		count = 1
	}
	var e BenchEntry
	var ms runtime.MemStats
	for i := 0; i < count; i++ {
		runtime.ReadMemStats(&ms)
		m0, b0 := ms.Mallocs, ms.TotalAlloc
		t0 := time.Now()
		if err := f(); err != nil {
			return e, err
		}
		wall := time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&ms)
		allocs, bytes := int64(ms.Mallocs-m0), int64(ms.TotalAlloc-b0)
		if i == 0 || wall < e.WallNS {
			e.WallNS = wall
		}
		if i == 0 || allocs < e.AllocsPerOp {
			e.AllocsPerOp = allocs
		}
		if i == 0 || bytes < e.BytesPerOp {
			e.BytesPerOp = bytes
		}
	}
	return e, nil
}

// paperTiming builds the dual-engine timing model over the paper's worked
// example block (the BenchmarkTimingModel setup).
func paperTiming(d *machine.Desc) (*core.Timing, *sched.BlockSched, *core.BlockAnalysis, error) {
	prog, f, err := core.PaperExample()
	if err != nil {
		return nil, nil, nil, err
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
		return nil, nil, nil, err
	}
	blk := res.Prog.Func("example").Blocks[0]
	g := speculate.BuildGraph(blk, d, ddg.Options{})
	bs := sched.ScheduleBlock(blk, g, d)
	an, err := core.Analyze(blk)
	if err != nil {
		return nil, nil, nil, err
	}
	return core.NewTiming(d), bs, an, nil
}

// benchSims is the pinned end-to-end simulation subset: small enough for a
// -count=5 CI run, varied enough to cover predictor-friendly (compress),
// pointer-chasing (li) and state-machine (m88ksim) behavior.
var benchSims = []string{"compress", "li", "m88ksim"}

// RunBenchGrid measures the pinned micro+experiment benchmark grid count
// times each and returns the perf record. log, when non-nil, receives one
// progress line per entry.
func RunBenchGrid(d *machine.Desc, count int, log io.Writer) (*BenchRecord, error) {
	rec := &BenchRecord{
		Schema:    BenchSchema,
		GoVersion: runtime.Version(),
		Machine:   d.Name,
		Count:     count,
	}
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format, args...)
		}
	}
	add := func(name string, cycles int64, f func() error) error {
		e, err := measure(count, f)
		if err != nil {
			return fmt.Errorf("bench %s: %w", name, err)
		}
		e.Name, e.Cycles = name, cycles
		rec.Entries = append(rec.Entries, e)
		logf("bench %-22s %12d ns  %9d allocs  %12d cycles\n",
			name, e.WallNS, e.AllocsPerOp, e.Cycles)
		return nil
	}

	// End-to-end dual-engine simulations (speculative machine, live
	// predictors). The simulator is built once outside the measured
	// section — the entry times simulation, not compilation — and cycles
	// are recorded from the deterministic run.
	r := NewRunner(d)
	for _, name := range benchSims {
		w := workload.ByName(name)
		if w == nil {
			return nil, fmt.Errorf("bench: unknown workload %q", name)
		}
		sim, err := r.SpecSim(w)
		if err != nil {
			return nil, err
		}
		var cycles int64
		warm := func() error {
			if _, err := sim.Run("main"); err != nil {
				return err
			}
			cycles = sim.Cycles
			return nil
		}
		if err := warm(); err != nil {
			return nil, fmt.Errorf("bench sim/%s: %w", name, err)
		}
		if err := add("sim/"+name, cycles, warm); err != nil {
			return nil, err
		}
	}

	// Generated-corpus row: a pinned progen slice through the same
	// dual-engine pipeline, so the perf trajectory also tracks the
	// synthetic workloads the conformance suite exercises.
	gen := workload.Generated(1, 4)
	genSims := make([]*core.Simulator, len(gen))
	for i, w := range gen {
		sim, err := r.SpecSim(w)
		if err != nil {
			return nil, fmt.Errorf("bench sim/gen-corpus (%s): %w", w.Name, err)
		}
		genSims[i] = sim
	}
	var genCycles int64
	runGen := func() error {
		genCycles = 0
		for i, sim := range genSims {
			if _, err := sim.Run("main"); err != nil {
				return fmt.Errorf("%s: %w", gen[i].Name, err)
			}
			genCycles += sim.Cycles
		}
		return nil
	}
	if err := runGen(); err != nil {
		return nil, fmt.Errorf("bench sim/gen-corpus: %w", err)
	}
	if err := add("sim/gen-corpus", genCycles, runGen); err != nil {
		return nil, err
	}

	// Decoded-grid row: the pinned simulation subset run through the
	// batched engine. cmd/benchdiff gates its allocation count
	// (steady-state pooling must hold at zero).
	gridItems := make([]core.BatchItem, 0, len(benchSims))
	for _, name := range benchSims {
		si, err := r.specImageFor(workload.ByName(name))
		if err != nil {
			return nil, fmt.Errorf("bench sim/decoded-grid (%s): %w", name, err)
		}
		gridItems = append(gridItems, core.BatchItem{Name: name, Img: si.Img, Schemes: si.Schemes})
	}
	batch := core.NewBatch()
	gridResults := make([]core.BatchResult, 0, len(gridItems))
	var decodedCycles int64
	runDecoded := func() error {
		decodedCycles = 0
		gridResults = batch.RunAllInto(gridResults[:0], gridItems)
		for i := range gridResults {
			if gridResults[i].Err != nil {
				return fmt.Errorf("%s: %w", gridResults[i].Name, gridResults[i].Err)
			}
			decodedCycles += gridResults[i].Cycles
		}
		return nil
	}
	// One warm pass primes the simulator pools and predictor tables so the
	// measured runs see the steady state the allocation gate pins.
	if err := runDecoded(); err != nil {
		return nil, fmt.Errorf("bench sim/decoded-grid: %w", err)
	}
	if err := add("sim/decoded-grid", decodedCycles, runDecoded); err != nil {
		return nil, err
	}

	// Cached-grid row: the same batch and compile products with the
	// L1+prefetcher hierarchy bound per item. The allocation gate holds
	// here too — tag arrays and prefetcher streams are pooled with the
	// simulator — and the architectural results must match the flat grid
	// exactly (the hierarchy is timing-only).
	cachedItems := make([]core.BatchItem, len(gridItems))
	for i, it := range gridItems {
		it.Mem = machine.MemL1PF
		cachedItems[i] = it
	}
	var cachedCycles int64
	runCached := func() error {
		cachedCycles = 0
		gridResults = batch.RunAllInto(gridResults[:0], cachedItems)
		for i := range gridResults {
			if gridResults[i].Err != nil {
				return fmt.Errorf("%s: %w", gridResults[i].Name, gridResults[i].Err)
			}
			cachedCycles += gridResults[i].Cycles
		}
		return nil
	}
	if err := runCached(); err != nil {
		return nil, fmt.Errorf("bench sim/cached-grid: %w", err)
	}
	if err := add("sim/cached-grid", cachedCycles, runCached); err != nil {
		return nil, err
	}
	if cachedCycles <= decodedCycles {
		return nil, fmt.Errorf("bench: cached grid %d cycles not above flat grid %d: the hierarchy charged nothing",
			cachedCycles, decodedCycles)
	}

	// Branch-grid row: the same batch with a TAGE direction predictor
	// bound per item, so the perf trajectory tracks the control-speculation
	// path — prediction, redirect accounting, and mispredict flushes. The
	// allocation gate holds here too (the predictor is pooled and reset in
	// place), and the flat rows above are unaffected: a zero ControlConfig
	// reproduces the pre-branch machine exactly.
	branchCfg, err := predict.ParseBranch("tage")
	if err != nil {
		return nil, err
	}
	branchItems := make([]core.BatchItem, len(gridItems))
	for i, it := range gridItems {
		it.Ctrl = machine.ControlConfig{Branch: branchCfg}
		branchItems[i] = it
	}
	var branchCycles int64
	runBranch := func() error {
		branchCycles = 0
		gridResults = batch.RunAllInto(gridResults[:0], branchItems)
		for i := range gridResults {
			if gridResults[i].Err != nil {
				return fmt.Errorf("%s: %w", gridResults[i].Name, gridResults[i].Err)
			}
			branchCycles += gridResults[i].Cycles
		}
		return nil
	}
	if err := runBranch(); err != nil {
		return nil, fmt.Errorf("bench sim/branch-grid: %w", err)
	}
	if err := add("sim/branch-grid", branchCycles, runBranch); err != nil {
		return nil, err
	}
	if branchCycles <= decodedCycles {
		return nil, fmt.Errorf("bench: branch grid %d cycles not above flat grid %d: control speculation charged nothing",
			branchCycles, decodedCycles)
	}

	// Pipeline component micro-benchmarks.
	vortex, err := workload.Vortex.Compile()
	if err != nil {
		return nil, err
	}
	if err := add("compile/vortex", 0, func() error {
		_, err := workload.Vortex.Compile()
		return err
	}); err != nil {
		return nil, err
	}
	if err := add("profile/m88ksim", 0, func() error {
		prog, err := workload.M88ksim.Compile()
		if err != nil {
			return err
		}
		_, err = profile.Collect(prog, "main")
		return err
	}); err != nil {
		return nil, err
	}
	if err := add("schedule/vortex", 0, func() error {
		for _, f := range vortex.Funcs {
			for _, blk := range f.Blocks {
				g := ddg.Build(blk, d.Latency, ddg.Options{})
				sched.ScheduleBlock(blk, g, d)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	vortexProf, err := profile.Collect(vortex, "main")
	if err != nil {
		return nil, err
	}
	specCfg := speculate.DefaultConfig(d)
	if err := add("speculate/vortex", 0, func() error {
		_, err := speculate.Transform(vortex, vortexProf, specCfg)
		return err
	}); err != nil {
		return nil, err
	}
	tm, bs, an, err := paperTiming(d)
	if err != nil {
		return nil, err
	}
	var mask uint32
	if err := add("timing/example", 0, func() error {
		for i := 0; i < 1024; i++ {
			if _, err := tm.SimulateBlock(bs, an, mask&3); err != nil {
				return err
			}
			mask++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := add("predict/stride", 0, func() error {
		p := predict.NewStride()
		for i := 0; i < 1<<16; i++ {
			p.Predict()
			p.Update(uint64(i * 8))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := add("predict/fcm", 0, func() error {
		p := predict.NewFCM(predict.DefaultFCMOrder, predict.DefaultFCMTableBits)
		for i := 0; i < 1<<16; i++ {
			p.Predict()
			p.Update(uint64(i % 17))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return rec, nil
}
