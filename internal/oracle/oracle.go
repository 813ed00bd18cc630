// Package oracle is the differential-testing harness for the dual-engine
// machine: it runs the full pipeline (profile → speculate → schedule →
// core.Simulator) and the sequential reference interpreter on the same
// program, then compares the final return value, the printed output, and
// the complete memory image. Any mismatch is a simulator or compiler bug by
// definition — the interpreter defines the architecture's semantics.
//
// A reported divergence carries a minimized reproduction: the predictor
// scheme map is greedily pruned to the entries that still reproduce the
// mismatch, and the Compensation Code Buffer capacity is shrunk to the
// smallest size that still diverges. Grid checks fan out across the same
// bounded worker pool (internal/pool) the experiment drivers use.
package oracle

import (
	"fmt"
	"sort"

	"vliwvp/internal/baseline"
	"vliwvp/internal/core"
	"vliwvp/internal/ddg"
	"vliwvp/internal/interp"
	"vliwvp/internal/ir"
	"vliwvp/internal/machine"
	"vliwvp/internal/pipeline"
	"vliwvp/internal/pool"
	"vliwvp/internal/profile"
	"vliwvp/internal/sched"
	"vliwvp/internal/speculate"
	"vliwvp/internal/workload"
)

// mgr executes the oracle's pipeline runs. The oracle shares the pass
// spine (internal/pipeline) with the experiment harness but none of the
// harness's caching or preparation plumbing — no cache or key is attached,
// so every check compiles and schedules from scratch and cross-checks what
// internal/exp serves from its cache.
var mgr = pipeline.NewManager()

// Config fixes one differential-check configuration.
type Config struct {
	// D is the machine description (required).
	D *machine.Desc
	// DDG configures dependence-graph construction.
	DDG ddg.Options
	// Spec configures the speculation pass. A zero Threshold selects
	// speculate.DefaultConfig(D).
	Spec speculate.Config
	// CCBCapacity overrides the Compensation Code Buffer size (0 = default).
	CCBCapacity int
	// SerialRecovery checks the serial-recovery baseline machine instead of
	// the dual-engine one (recovery lengths come from baseline.Build).
	SerialRecovery bool
	// Ctrl is the control-speculation configuration (taken-branch cost,
	// flush/redirect latencies, optional dynamic branch predictor). The zero
	// value is the pre-branch-predictor machine.
	Ctrl machine.ControlConfig
	// trialMaxCycles bounds minimization trials: shrinking the CCB under a
	// program compiled for a larger speculative window can wedge the
	// machine, and a wedged trial must abort fast, not run to the
	// simulator's 2^34-cycle runaway limit.
	trialMaxCycles int64
}

// DefaultConfig checks the dual-engine machine at the paper's settings.
func DefaultConfig(d *machine.Desc) Config {
	return Config{D: d, Spec: speculate.DefaultConfig(d)}
}

func (c Config) withDefaults() Config {
	if c.Spec.Threshold == 0 {
		c.Spec = speculate.DefaultConfig(c.D)
	}
	// The Synchronization-bit budget is co-designed to the CCB size: a
	// speculative window larger than the buffer wedges the in-order
	// engines, so the compiler must never create one (mirrors the CCB
	// ablation in internal/exp).
	if c.CCBCapacity > 0 && c.Spec.MaxSyncBits > c.CCBCapacity {
		c.Spec.MaxSyncBits = c.CCBCapacity
	}
	return c
}

// Repro pins down a failing run precisely enough to replay it.
type Repro struct {
	// Benchmark is the program's name (a workload name, or a caller label).
	Benchmark      string
	Machine        string
	SerialRecovery bool
	Ctrl           machine.ControlConfig
	// CCBCapacity is the smallest capacity that still diverges.
	CCBCapacity int
	// SiteIDs lists every prediction site of the transformed program.
	SiteIDs []int
	// Schemes is the minimized scheme map: the non-default (FCM) entries
	// whose presence is necessary to reproduce the divergence. Sites absent
	// from the map fall back to the stride predictor.
	Schemes map[int]profile.Scheme
}

func (r Repro) String() string {
	mode := "dual-engine"
	if r.SerialRecovery {
		mode = fmt.Sprintf("serial(%s)", r.Ctrl.Key())
	}
	return fmt.Sprintf("%s on %s %s ccb=%d sites=%v schemes=%v",
		r.Benchmark, r.Machine, mode, r.CCBCapacity, r.SiteIDs, r.Schemes)
}

// Divergence is one observed disagreement between the simulator and the
// sequential interpreter.
type Divergence struct {
	Repro Repro
	// Kind is "value", "output", "memory", or "sim-error".
	Kind   string
	Detail string
}

func (d *Divergence) String() string {
	return fmt.Sprintf("%s divergence [%s]: %s", d.Kind, d.Repro, d.Detail)
}

// refResult is the interpreter's ground truth for one program.
type refResult struct {
	value  uint64
	output []string
	mem    []uint64
}

func refRun(prog *ir.Program) (*refResult, error) {
	m := interp.New(prog)
	v, err := m.RunMain()
	if err != nil {
		return nil, fmt.Errorf("oracle: reference interp: %w", err)
	}
	return &refResult{value: v, output: m.Output, mem: m.Mem}, nil
}

// scheduleFor runs the oracle's own schedule plan — independent of
// internal/exp's cached preparation — so the oracle cross-checks the
// experiment harness rather than trusting its plumbing.
func scheduleFor(prog *ir.Program, cfg Config) (*sched.ProgSched, error) {
	plan := pipeline.Plan{Name: "oracle-schedule", Passes: []pipeline.Pass{
		pipeline.Schedule{DDG: cfg.DDG},
	}}
	ctx := &pipeline.Ctx{Prog: prog, Machine: cfg.D, Shared: true}
	if err := mgr.Run(plan, ctx); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return ctx.Sched, nil
}

// diff schedules the transformed program, runs it once on the dual-engine
// simulator and compares every architectural observable against the
// reference. A simulator execution error is itself a divergence (kind
// "sim-error"), not a check failure: the reference ran.
func diff(ref *refResult, prog *ir.Program, schemes map[int]profile.Scheme, recLen map[int]int, cfg Config) (kind, detail string, err error) {
	ps, err := scheduleFor(prog, cfg)
	if err != nil {
		return "", "", err
	}
	sim, err := core.NewSimulator(prog, ps, cfg.D, schemes)
	if err != nil {
		return "", "", err
	}
	if cfg.CCBCapacity > 0 {
		sim.CCBCapacity = cfg.CCBCapacity
	}
	sim.Control = cfg.Ctrl
	if cfg.SerialRecovery {
		sim.SerialRecovery = true
		sim.RecoveryLen = recLen
	}
	if cfg.trialMaxCycles > 0 {
		sim.MaxCycles = cfg.trialMaxCycles
	}
	v, runErr := sim.Run("main")
	if runErr != nil {
		return "sim-error", runErr.Error(), nil
	}
	if v != ref.value {
		return "value", fmt.Sprintf("simulator returned %d, interpreter %d", v, ref.value), nil
	}
	if len(sim.Output) != len(ref.output) {
		return "output", fmt.Sprintf("simulator printed %d lines, interpreter %d", len(sim.Output), len(ref.output)), nil
	}
	for i := range ref.output {
		if sim.Output[i] != ref.output[i] {
			return "output", fmt.Sprintf("line %d: simulator %q, interpreter %q", i, sim.Output[i], ref.output[i]), nil
		}
	}
	mem := sim.Memory()
	if len(mem) != len(ref.mem) {
		return "memory", fmt.Sprintf("memory size %d != %d", len(mem), len(ref.mem)), nil
	}
	for i := range ref.mem {
		if mem[i] != ref.mem[i] {
			return "memory", fmt.Sprintf("word %d: simulator %d, interpreter %d", i, mem[i], ref.mem[i]), nil
		}
	}
	return "", "", nil
}

// CheckProgram differentially tests one compiled program under cfg. It
// returns nil when simulator and interpreter agree on return value, output,
// and memory image; otherwise a Divergence with a minimized reproduction.
// The input program is not mutated (the speculation pass clones it).
func CheckProgram(name string, prog *ir.Program, cfg Config) (*Divergence, error) {
	cfg = cfg.withDefaults()
	ref, err := refRun(prog)
	if err != nil {
		return nil, err
	}
	plan := pipeline.Plan{Name: "oracle-speculate", Passes: []pipeline.Pass{
		pipeline.Profile{}, pipeline.Speculate{Cfg: cfg.Spec},
	}}
	ctx := &pipeline.Ctx{Prog: prog, Machine: cfg.D, Shared: true}
	if err := mgr.Run(plan, ctx); err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", name, err)
	}
	res, schemes := ctx.Spec, ctx.Schemes
	siteIDs := make([]int, 0, len(res.Sites))
	for _, site := range res.Sites {
		siteIDs = append(siteIDs, site.ID)
	}
	sort.Ints(siteIDs)

	var recLen map[int]int
	if cfg.SerialRecovery {
		bm, err := baseline.Build(res, cfg.D, cfg.DDG, cfg.Ctrl)
		if err != nil {
			return nil, fmt.Errorf("oracle: baseline %s: %w", name, err)
		}
		recLen = map[int]int{}
		for bk, info := range res.Blocks {
			bmB := bm.Blocks[bk]
			for i, sid := range info.SiteIDs {
				if bmB != nil && i < len(bmB.RecoveryLen) {
					recLen[sid] = bmB.RecoveryLen[i]
				}
			}
		}
	}

	kind, detail, err := diff(ref, res.Prog, schemes, recLen, cfg)
	if err != nil {
		return nil, err
	}
	if kind == "" {
		return nil, nil
	}
	div := &Divergence{
		Repro: Repro{
			Benchmark:      name,
			Machine:        cfg.D.Name,
			SerialRecovery: cfg.SerialRecovery,
			Ctrl:           cfg.Ctrl,
			CCBCapacity:    effectiveCCB(cfg),
			SiteIDs:        siteIDs,
			Schemes:        schemes,
		},
		Kind:   kind,
		Detail: detail,
	}
	minimize(div, ref, res.Prog, recLen, cfg)
	return div, nil
}

func effectiveCCB(cfg Config) int {
	if cfg.CCBCapacity > 0 {
		return cfg.CCBCapacity
	}
	return core.DefaultCCBCapacity
}

// minimize shrinks the reproduction in place: first greedily prune scheme
// entries (a pruned site falls back to the stride predictor), then find the
// smallest CCB capacity that still reproduces some divergence. Every trial
// re-runs the simulator; minimization therefore only runs on the rare
// failing path.
func minimize(div *Divergence, ref *refResult, prog *ir.Program, recLen map[int]int, cfg Config) {
	cfg.trialMaxCycles = 1 << 24
	// A trial counts only if it reproduces the SAME kind of divergence: a
	// smaller CCB that merely wedges the machine (sim-error) is a different
	// failure, not a smaller reproduction of this one.
	stillDiverges := func(schemes map[int]profile.Scheme, c Config) bool {
		kind, _, err := diff(ref, prog, schemes, recLen, c)
		return err == nil && kind == div.Kind
	}

	keys := make([]int, 0, len(div.Repro.Schemes))
	for k := range div.Repro.Schemes {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	min := div.Repro.Schemes
	for _, k := range keys {
		trial := make(map[int]profile.Scheme, len(min))
		for kk, v := range min {
			if kk != k {
				trial[kk] = v
			}
		}
		if stillDiverges(trial, cfg) {
			min = trial
		}
	}
	div.Repro.Schemes = min

	for _, pt := range []int{1, 2, 4, 8, 16, 32} {
		if pt >= effectiveCCB(cfg) {
			break
		}
		c := cfg
		c.CCBCapacity = pt
		if stillDiverges(min, c) {
			div.Repro.CCBCapacity = pt
			break
		}
	}
}

// CheckSource compiles VL source (unoptimized, so the oracle also covers
// pre-optimizer programs) and differentially tests it.
func CheckSource(name, src string, cfg Config) (*Divergence, error) {
	plan := pipeline.Plan{Name: "oracle-lower", Passes: []pipeline.Pass{pipeline.Lower{}}}
	ctx := &pipeline.Ctx{Source: src}
	if err := mgr.Run(plan, ctx); err != nil {
		return nil, fmt.Errorf("oracle: compile %s: %w", name, err)
	}
	return CheckProgram(name, ctx.Prog, cfg)
}

// CheckBenchmark differentially tests one workload benchmark.
func CheckBenchmark(b *workload.Benchmark, cfg Config) (*Divergence, error) {
	prog, err := b.Compile()
	if err != nil {
		return nil, err
	}
	return CheckProgram(b.Name, prog, cfg)
}

// Cell names one (benchmark, configuration) point of a check grid.
type Cell struct {
	Bench *workload.Benchmark
	Label string
	Cfg   Config
}

// CheckGrid fans every cell across a bounded worker pool (jobs workers) and
// returns the divergences in cell order. The error, if any, is the
// lowest-indexed cell's check failure (a divergence is a result, not an
// error).
func CheckGrid(cells []Cell, jobs int) ([]*Divergence, error) {
	divs := make([]*Divergence, len(cells))
	err := pool.ForEach(jobs, len(cells), func(i int) error {
		d, err := CheckBenchmark(cells[i].Bench, cells[i].Cfg)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", cells[i].Bench.Name, cells[i].Label, err)
		}
		divs[i] = d
		return nil
	})
	if err != nil {
		return nil, err
	}
	return divs, nil
}

// StandardCells builds the default check grid over the given benchmarks:
// the dual-engine machine at full and minimal CCB capacity, plus the
// serial-recovery machine, at every given machine width.
func StandardCells(benches []*workload.Benchmark, descs []*machine.Desc) []Cell {
	var cells []Cell
	for _, d := range descs {
		for _, b := range benches {
			cells = append(cells,
				Cell{Bench: b, Label: "dual/" + d.Name, Cfg: DefaultConfig(d)},
				Cell{Bench: b, Label: "dual-ccb4/" + d.Name, Cfg: Config{D: d, CCBCapacity: 4}},
				Cell{Bench: b, Label: "serial/" + d.Name, Cfg: Config{D: d, SerialRecovery: true, Ctrl: machine.DefaultControl()}},
			)
		}
	}
	return cells
}
