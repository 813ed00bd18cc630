package exp

// This file is the caching layer between the experiment drivers and the
// compile pipeline. Every product stored here is immutable after
// publication and is shared read-only across worker goroutines and across
// runner configurations:
//
//   - frontEnd: the machine-independent pipeline prefix (compile →
//     if-convert → region formation → value profile), keyed by benchmark
//     source hash and the pass configurations — including the set of
//     predictor families the profile meters.
//   - origLens: original schedule lengths of every block, keyed by the
//     program (the front end before its profile pass) + machine
//     description + DDG options.
//   - interp run: the sequential reference result of the front-end
//     program, keyed by the program.
//   - base run: the baseline (no-speculation) dual-engine cycle count,
//     validated against the interp run when computed, keyed by the program
//     and the machine-side configuration.
//
// Only the profile depends on the predictor config, so runners that differ
// in predictor alone share one interpreter run, one baseline run and one
// set of schedule lengths per kernel.
//
// Anything downstream of speculate.Transform is configuration-dependent and
// deliberately NOT cached here. See DESIGN.md ("Compile-cache keying").

import (
	"fmt"

	"vliwvp/internal/exp/cache"
	"vliwvp/internal/interp"
	"vliwvp/internal/ir"
	"vliwvp/internal/pipeline"
	"vliwvp/internal/profile"
	"vliwvp/internal/workload"
)

// sharedCache serves every Runner whose Cache field is nil, so independent
// drivers in one process (e.g. the ablation suite) share front ends.
var sharedCache = cache.New()

// frontEnd is the machine-independent pipeline prefix for one benchmark
// under one (IfConvert, Regions) configuration. Prog and Prof are read-only
// after construction.
type frontEnd struct {
	Prog *ir.Program
	Prof *profile.Profile
}

// baseRun is the cached baseline (no value speculation) end-to-end run.
type baseRun struct {
	Cycles int64
	Value  uint64
}

func (r *Runner) cacheFor() *cache.Cache {
	if r.Cache != nil {
		return r.Cache
	}
	return sharedCache
}

// manager wires a pass manager over the runner's configuration: the
// runner's cache (per-pass memoization), optional pass-event sink, optional
// IR dump hook, and between-pass validation (always on when ValidateIR is
// set; the manager itself defaults it on under `go test`).
func (r *Runner) manager() *pipeline.Manager {
	m := pipeline.NewManager()
	if r.ValidateIR {
		m.ValidateEach = true
	}
	m.Cache = r.cacheFor()
	m.Sink = r.PassSink
	m.Dump = r.DumpIR
	return m
}

// frontBase fingerprints the front end's input: the program source (by
// hash, so workload edits invalidate). Pass configurations enter the key
// per pass, via the plan. The machine description is deliberately absent —
// the front end is machine-independent.
func (r *Runner) frontBase(b *workload.Benchmark) string {
	return "fe|" + b.Name + "|" + b.SourceHash()
}

// frontKey is the cumulative per-pass cache key of the full front-end
// plan; compiled products key off it.
func (r *Runner) frontKey(b *workload.Benchmark) string {
	pl := r.FrontPlan()
	return pl.Key(r.frontBase(b), len(pl.Passes))
}

// progKey is the cumulative cache key of the front-end plan before its
// value-profile pass: it fingerprints the front-end program, which the
// profile does not change. The lens/interp/base caches key off it.
func (r *Runner) progKey(b *workload.Benchmark) string {
	pl := r.FrontPlan()
	return pl.Key(r.frontBase(b), len(pl.Passes)-1)
}

// FrontPlan is the machine-independent pipeline prefix the runner's
// configuration selects: compile, optimize, optional if-conversion and
// region formation, value profile. The profile meters only the predictor
// families r.Cfg.Predictor can read. Every pass in it is cacheable, so runs
// that agree on a prefix share its per-pass cache entries.
func (r *Runner) FrontPlan() pipeline.Plan {
	passes := []pipeline.Pass{pipeline.Lower{}, pipeline.Opt{}}
	name := "frontend"
	if r.IfConvert {
		passes = append(passes, pipeline.IfConvert{Cfg: r.IfConvCfg})
		name += "+ifconv"
	}
	if r.Regions {
		// Region formation duplicates code (fresh op IDs), so the pass uses
		// its own edge profile and the value profile is collected afterwards.
		passes = append(passes, pipeline.Regions{Cfg: r.RegionsCfg})
		name += "+regions"
	}
	passes = append(passes, pipeline.Profile{Meters: profile.MetersFor(r.Cfg.Predictor)})
	return pipeline.Plan{Name: name, Passes: passes}
}

// SpeculatePlan is the configuration-dependent speculation step: select
// prediction sites and insert LdPred/CheckLd pairs. Its product is not
// cached (it varies with every swept knob), so it runs live downstream of
// the cached front end.
func (r *Runner) SpeculatePlan() pipeline.Plan {
	return pipeline.Plan{Name: "speculate", Passes: []pipeline.Pass{
		pipeline.Speculate{Cfg: r.Cfg},
	}}
}

// SchedulePlan is the back-end scheduling step: list-schedule every block
// of the current program for the runner's machine and DDG options, then
// decode the result into the simulator's dense image.
func (r *Runner) SchedulePlan() pipeline.Plan {
	return pipeline.Plan{Name: "schedule", Passes: []pipeline.Pass{
		pipeline.Schedule{DDG: r.DDG}, pipeline.Decode{},
	}}
}

// SpecPlan is speculation followed by whole-program scheduling and image
// decode — the suffix the speedup and trace drivers run after the front
// end.
func (r *Runner) SpecPlan() pipeline.Plan {
	return pipeline.Plan{Name: "speculate+schedule", Passes: []pipeline.Pass{
		pipeline.Speculate{Cfg: r.Cfg}, pipeline.Schedule{DDG: r.DDG}, pipeline.Decode{},
	}}
}

// Plans lists every plan the runner's current configuration composes, in
// execution order (vpexp -passes prints these).
func (r *Runner) Plans() []pipeline.Plan {
	return []pipeline.Plan{r.FrontPlan(), r.SpeculatePlan(), r.SchedulePlan()}
}

// frontEndFor compiles, optionally if-converts and forms regions, and value
// profiles the benchmark — once per (pass, key) per cache.
func (r *Runner) frontEndFor(b *workload.Benchmark) (*frontEnd, error) {
	ctx := &pipeline.Ctx{Source: b.Source, Key: r.frontBase(b), Machine: r.D}
	if err := r.manager().Run(r.FrontPlan(), ctx); err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	return &frontEnd{Prog: ctx.Prog, Prof: ctx.Prof}, nil
}

// specImageFor returns the benchmark's compiled product (decoded image,
// per-site schemes, rendered schedule) under the runner's speculative
// configuration, computed once per cache. The key composes the front-end
// key with every SpecPlan pass fingerprint (speculation config, DDG
// options, image format version) and the machine description, so images
// cache exactly as finely as the pipeline products they decode.
func (r *Runner) specImageFor(b *workload.Benchmark) (*Compiled, error) {
	key := r.CompiledKey(b)
	v, err := r.cacheFor().Do(key, func() (any, error) {
		ctx, err := r.specRun(b)
		if err != nil {
			return nil, err
		}
		if ctx.Image == nil {
			return nil, fmt.Errorf("%s: spec plan produced no image", b.Name)
		}
		return &Compiled{
			Img:      ctx.Image,
			Schemes:  ctx.Schemes,
			Schedule: RenderSchedule(ctx.Prog, ctx.Sched),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Compiled), nil
}

// origLensFor returns the original schedule length of every block of the
// front-end program, shared across configurations that agree on machine and
// DDG options. The returned map is read-only.
func (r *Runner) origLensFor(b *workload.Benchmark, fe *frontEnd) (map[profile.BlockKey]int, error) {
	key := fmt.Sprintf("lens|%s|d=%+v|g=%+v", r.progKey(b), *r.D, r.DDG)
	v, err := r.cacheFor().Do(key, func() (any, error) {
		return r.computeOrigLens(fe.Prog), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(map[profile.BlockKey]int), nil
}

// interpRunFor returns the sequential reference result of the front-end
// program — the value every simulated run must reproduce.
func (r *Runner) interpRunFor(b *workload.Benchmark, fe *frontEnd) (uint64, error) {
	key := "interp|" + r.progKey(b)
	v, err := r.cacheFor().Do(key, func() (any, error) {
		got, err := interp.New(fe.Prog).RunMain()
		if err != nil {
			return nil, fmt.Errorf("%s interp: %w", b.Name, err)
		}
		return got, nil
	})
	if err != nil {
		return 0, err
	}
	return v.(uint64), nil
}

// baseRunFor returns the baseline end-to-end dual-engine run (the program
// without value speculation), validated against the interpreter the first
// time it is computed. The untransformed program issues no predictions, so
// the run is independent of CCB capacity and speculation config; sweeps
// over those knobs all share one baseline run per (front end, machine,
// DDG, memory hierarchy, control config). The hierarchy and control
// config are part of the key: baseline cycles move with cache latency
// and branch handling even though the architectural result does not.
func (r *Runner) baseRunFor(b *workload.Benchmark, fe *frontEnd) (baseRun, error) {
	key := fmt.Sprintf("base|%s|d=%+v|g=%+v|m=%s|c=%s", r.progKey(b), *r.D, r.DDG, r.Mem.Key(), r.Cfg.Control.Key())
	v, err := r.cacheFor().Do(key, func() (any, error) {
		sim, err := r.NewSimulatorFor(fe.Prog, nil)
		if err != nil {
			return nil, err
		}
		got, err := sim.Run("main")
		if err != nil {
			return nil, fmt.Errorf("%s baseline sim: %w", b.Name, err)
		}
		want, err := r.interpRunFor(b, fe)
		if err != nil {
			return nil, err
		}
		if got != want {
			return nil, fmt.Errorf("%s: baseline sim result %d != interp %d", b.Name, got, want)
		}
		return baseRun{Cycles: sim.Cycles, Value: got}, nil
	})
	if err != nil {
		return baseRun{}, err
	}
	return v.(baseRun), nil
}
