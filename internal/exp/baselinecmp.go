package exp

import (
	"fmt"

	"vliwvp/internal/baseline"
	"vliwvp/internal/core"
	"vliwvp/internal/machine"
	"vliwvp/internal/profile"
	"vliwvp/internal/stats"
)

// BaselineRow compares the proposed architecture with the static
// compensation-block recovery scheme of [4] on one benchmark — the §3
// comparison the paper summarizes in prose ("the percentage of compensation
// code increased to a significant fraction of total execution time,
// compared to our scheme where this percentage was negligible").
type BaselineRow struct {
	Name string
	// CompFracBase is the fraction of baseline execution time spent in
	// compensation blocks (including branch penalties).
	CompFracBase float64
	// CompFracOurs is the fraction of our execution time lost to
	// mispredictions: cycles beyond the all-correct length of each block
	// instance (the only main-engine cost of compensation in the proposed
	// architecture; verification waits exist identically in both schemes).
	CompFracOurs float64
	// SchedRatioBase / SchedRatioOurs: measured effective schedule length
	// over original, expectation under the profiled outcome distribution.
	SchedRatioBase float64
	SchedRatioOurs float64
	// CodeGrowthInstrs is the static long-instruction count added by the
	// baseline's recovery blocks (ours adds none).
	CodeGrowthInstrs int
	// ICacheMissBase / ICacheMissOurs: instruction-cache miss rates over
	// the dynamic block-fetch trace.
	ICacheMissBase float64
	ICacheMissOurs float64
	// DynCyclesBase / DynCyclesOurs: fully dynamic end-to-end cycle counts
	// of the serial-recovery machine vs the dual-engine machine.
	DynCyclesBase int64
	DynCyclesOurs int64
}

// baselineICache is the instruction cache the comparison replays block
// fetches through: a small 2-way true-LRU cache of 64 long-instruction
// words that makes capacity effects visible at kernel scale.
var baselineICache = machine.CacheParams{Lines: 16, Assoc: 2, LineWords: 4, HitLat: 1}

// CompareBaseline runs the full comparison for one prepared benchmark.
func (r *Runner) CompareBaseline(bd *BenchData) (BaselineRow, error) {
	row := BaselineRow{Name: bd.Bench.Name}
	bm, err := baseline.Build(bd.Res, r.D, r.DDG, baseline.DefaultConfig())
	if err != nil {
		return row, err
	}
	row.CodeGrowthInstrs = bm.CodeGrowthInstrs()

	// Cycle accounting under the profiled outcome distribution.
	var baseTotal, baseComp, oursTotal, oursRecovery float64
	var origSpec stats.WeightedMean
	for bk, blk := range bd.Blocks {
		best, err := blk.Result(blk.FullMask())
		if err != nil {
			return row, err
		}
		for mask, n := range bd.Out.MaskCounts[bk] {
			w := float64(n)
			baseTotal += w * float64(bm.EffectiveLength(bk, mask))
			baseComp += w * float64(bm.CompCycles(bk, mask))
			res, err := blk.Result(mask)
			if err != nil {
				return row, err
			}
			oursTotal += w * float64(res.Length)
			if d := res.Length - best.Length; d > 0 {
				oursRecovery += w * float64(d)
			}
			origSpec.Add(float64(blk.OrigLen), w)
		}
	}
	// Non-speculated execution time is identical in both machines; include
	// it so fractions are of TOTAL time, as the paper reports.
	rest := bd.TotalTime - origSpec.Mean()*origSpec.Weight()
	if rest < 0 {
		rest = 0
	}
	if t := baseTotal + rest; t > 0 {
		row.CompFracBase = baseComp / t
	}
	if t := oursTotal + rest; t > 0 {
		row.CompFracOurs = oursRecovery / t
	}
	if w := origSpec.Mean() * origSpec.Weight(); w > 0 {
		row.SchedRatioBase = baseTotal / w
		row.SchedRatioOurs = oursTotal / w
	}

	// Instruction-cache study: replay the dynamic block trace through the
	// cache model under both code layouts. The baseline layout appends
	// every recovery block after its function; on a misprediction the
	// recovery block is fetched too.
	missBase, missOurs, err := r.icacheStudy(bd, bm)
	if err != nil {
		return row, err
	}
	row.ICacheMissBase = missBase
	row.ICacheMissOurs = missOurs
	return row, nil
}

// layout assigns instruction-word addresses to blocks.
type layout struct {
	addr map[profile.BlockKey]int64
	size map[profile.BlockKey]int
	// recovery block addresses per block, per site index (baseline only).
	recAddr map[profile.BlockKey][]int64
	recSize map[profile.BlockKey][]int
	total   int64
}

// buildLayout lays out every function's blocks sequentially; when bm is
// non-nil, recovery blocks follow their function's code.
func (r *Runner) buildLayout(bd *BenchData, bm *baseline.Model) *layout {
	l := &layout{
		addr:    map[profile.BlockKey]int64{},
		size:    map[profile.BlockKey]int{},
		recAddr: map[profile.BlockKey][]int64{},
		recSize: map[profile.BlockKey][]int{},
	}
	var a int64
	for _, f := range bd.Res.Prog.Funcs {
		var fblocks []profile.BlockKey
		for _, blk := range f.Blocks {
			bk := profile.BlockKey{Func: f.Name, Block: blk.ID}
			var words int
			if bdat := bd.Blocks[bk]; bdat != nil {
				words = bdat.Sched.Length()
			} else {
				words = bd.OrigLen(bk)
			}
			if words == 0 {
				words = 1
			}
			l.addr[bk] = a
			l.size[bk] = words
			a += int64(words)
			fblocks = append(fblocks, bk)
		}
		if bm != nil {
			for _, bk := range fblocks {
				bmm := bm.Blocks[bk]
				if bmm == nil {
					continue
				}
				for _, rl := range bmm.RecoveryLen {
					l.recAddr[bk] = append(l.recAddr[bk], a)
					l.recSize[bk] = append(l.recSize[bk], rl)
					a += int64(rl)
				}
			}
		}
	}
	l.total = a
	return l
}

// icacheStudy replays the block-fetch trace under both layouts.
func (r *Runner) icacheStudy(bd *BenchData, bm *baseline.Model) (base, ours float64, err error) {
	ourLayout := r.buildLayout(bd, nil)
	baseLayout := r.buildLayout(bd, bm)
	ourCache := core.NewLRUCache(baselineICache)
	baseCache := core.NewLRUCache(baselineICache)

	hooks := profile.OutcomeHooks{
		OnBlock: func(bk profile.BlockKey) {
			ourCache.AccessRange(ourLayout.addr[bk], ourLayout.size[bk])
			baseCache.AccessRange(baseLayout.addr[bk], baseLayout.size[bk])
		},
		OnInstance: func(bk profile.BlockKey, mask uint32, numSel int) {
			// Baseline fetches each mispredicted site's recovery block.
			for i := 0; i < numSel; i++ {
				if mask&(1<<uint(i)) != 0 {
					continue
				}
				if i < len(baseLayout.recAddr[bk]) {
					baseCache.AccessRange(baseLayout.recAddr[bk][i], baseLayout.recSize[bk][i])
				}
			}
		},
	}
	if err := profile.StreamOutcomes(bd.Prog, bd.Res.Selection, "main", hooks); err != nil {
		return 0, 0, err
	}
	return baseCache.MissRate(), ourCache.MissRate(), nil
}

// RenderBaseline runs the comparison for every benchmark, including the
// fully dynamic end-to-end cycle counts of both machines (the serial
// [4]-style machine and the proposed dual-engine one, both validated
// against the sequential interpreter). Benchmarks fan across the runner's
// worker pool; rows aggregate in input order.
func RenderBaseline(r *Runner) (*stats.Table, []BaselineRow, error) {
	t := &stats.Table{
		Title: fmt.Sprintf("Comparison with static compensation blocks [4] (%s)", r.D.Name),
		Headers: []string{"Benchmark", "Comp% [4]", "Comp% ours", "Sched [4]", "Sched ours",
			"Code growth", "I$ miss [4]", "I$ miss ours", "Cycles [4]", "Cycles ours"},
	}
	rows := make([]BaselineRow, len(r.Benchmarks))
	err := r.forEach(len(r.Benchmarks), func(i int) error {
		b := r.Benchmarks[i]
		bd, err := r.Prepare(b)
		if err != nil {
			return err
		}
		row, err := r.CompareBaseline(bd)
		if err != nil {
			return err
		}
		serial, err := r.SpeedupSerial(b)
		if err != nil {
			return err
		}
		ours, err := r.Speedup(b)
		if err != nil {
			return err
		}
		row.DynCyclesBase = serial.SpecCycles
		row.DynCyclesOurs = ours.SpecCycles
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, row := range rows {
		t.AddRow(row.Name, stats.Pct(row.CompFracBase), stats.Pct(row.CompFracOurs),
			stats.F(row.SchedRatioBase), stats.F(row.SchedRatioOurs),
			fmt.Sprintf("%d", row.CodeGrowthInstrs),
			stats.Pct(row.ICacheMissBase), stats.Pct(row.ICacheMissOurs),
			fmt.Sprintf("%d", row.DynCyclesBase), fmt.Sprintf("%d", row.DynCyclesOurs))
	}
	return t, rows, nil
}
