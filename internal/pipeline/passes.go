package pipeline

// The concrete passes. Each is a thin, named adapter over the pure
// transformation packages (lang, opt, ifconv, regions, profile, speculate,
// sched); policy — ordering, validation, caching, observability — lives in
// the Manager, not here.

import (
	"fmt"

	"vliwvp/internal/core"
	"vliwvp/internal/ddg"
	"vliwvp/internal/ifconv"
	"vliwvp/internal/ir"
	"vliwvp/internal/lang"
	"vliwvp/internal/machine"
	"vliwvp/internal/opt"
	"vliwvp/internal/profile"
	"vliwvp/internal/regions"
	"vliwvp/internal/sched"
	"vliwvp/internal/speculate"
)

// Lower compiles ctx.Source into the IR (the plan root for source-rooted
// plans).
type Lower struct{}

// Name implements Pass.
func (Lower) Name() string { return "lower" }

// Cacheable marks the pass memoizable.
func (Lower) Cacheable() bool { return true }

// Mutates reports that the pass replaces rather than mutates ctx.Prog.
func (Lower) Mutates() bool { return false }

// Run implements Pass.
func (Lower) Run(ctx *Ctx, _ *ir.Program) error {
	prog, err := lang.Compile(ctx.Source)
	if err != nil {
		return err
	}
	ctx.Prog = prog
	return nil
}

// Opt is the machine-independent optimizer.
type Opt struct{}

// Name implements Pass.
func (Opt) Name() string { return "opt" }

// Cacheable marks the pass memoizable.
func (Opt) Cacheable() bool { return true }

// Structural: the optimizer rewrites blocks, so its output is always
// validated.
func (Opt) Structural() bool { return true }

// Run implements Pass.
func (Opt) Run(_ *Ctx, p *ir.Program) error {
	opt.Optimize(p)
	return nil
}

// IfConvert folds small branch diamonds into Select-predicated straight-line
// code.
type IfConvert struct{ Cfg ifconv.Config }

// Name implements Pass.
func (IfConvert) Name() string { return "ifconv" }

// Cacheable marks the pass memoizable.
func (IfConvert) Cacheable() bool { return true }

// Structural: if-conversion deletes blocks and rewrites branches.
func (IfConvert) Structural() bool { return true }

// Fingerprint keys the cache on the pass configuration.
func (c IfConvert) Fingerprint() string { return fmt.Sprintf("%+v", c.Cfg) }

// Run implements Pass.
func (c IfConvert) Run(_ *Ctx, p *ir.Program) error {
	ifconv.Convert(p, c.Cfg)
	return nil
}

// Regions forms profile-guided superblocks. Region formation duplicates
// code (fresh op IDs), so it collects its own block and edge profile,
// metering no value predictor; the value profile downstream passes consume
// must be collected afterwards (the Profile pass).
type Regions struct{ Cfg regions.Config }

// Name implements Pass.
func (Regions) Name() string { return "regions" }

// Cacheable marks the pass memoizable.
func (Regions) Cacheable() bool { return true }

// Structural: superblock formation duplicates and rewires blocks.
func (Regions) Structural() bool { return true }

// Fingerprint keys the cache on the pass configuration.
func (c Regions) Fingerprint() string { return fmt.Sprintf("%+v", c.Cfg) }

// Run implements Pass.
func (c Regions) Run(_ *Ctx, p *ir.Program) error {
	prof, err := profile.CollectMeters(p, profile.NoMeters, "main")
	if err != nil {
		return err
	}
	regions.Form(p, prof, c.Cfg)
	return nil
}

// Profile collects the value/frequency profile of the current program and
// publishes it as ctx.Prof.
type Profile struct {
	// Meters is the set of predictor families the value profile scores;
	// the zero value meters the whole zoo. Set it to
	// profile.MetersFor(predictor) to meter only what the speculation
	// pass's predictor config can read.
	Meters profile.Meters
}

// Name implements Pass.
func (Profile) Name() string { return "profile" }

// Cacheable marks the pass memoizable.
func (Profile) Cacheable() bool { return true }

// Mutates: profiling interprets the program read-only.
func (Profile) Mutates() bool { return false }

// Fingerprint keys the cache on the metered set, so profiles metering
// different families are cached apart and profiles metering the same set
// are shared, whatever predictor config asked for them.
func (c Profile) Fingerprint() string { return c.Meters.String() }

// Run implements Pass.
func (c Profile) Run(ctx *Ctx, p *ir.Program) error {
	prof, err := profile.CollectMeters(p, c.Meters, "main")
	if err != nil {
		return err
	}
	ctx.Prof = prof
	return nil
}

// Speculate selects prediction sites from ctx.Prof and inserts
// LdPred/CheckLd pairs, publishing the transformed clone as ctx.Prog, the
// full result as ctx.Spec, and the per-site predictor schemes as
// ctx.Schemes. The incoming program is left untouched (speculate.Transform
// clones internally), so a cache-shared program flows in without copying.
type Speculate struct{ Cfg speculate.Config }

// Name implements Pass.
func (Speculate) Name() string { return "speculate" }

// Structural: the transform inserts ops and rewrites uses, so its output
// program is always validated.
func (Speculate) Structural() bool { return true }

// Mutates reports that the incoming program is read, not modified.
func (Speculate) Mutates() bool { return false }

// Fingerprint keys events/keys on the pass configuration (the pass is not
// cacheable — its product is configuration-dependent measurement state —
// but plans embed the fingerprint in derived keys). The machine enters by
// name: the pointer identity of a Desc is process-local and two runs with
// the same named machine must fingerprint identically.
func (c Speculate) Fingerprint() string {
	cfg := c.Cfg
	mach := "none"
	if cfg.Machine != nil {
		mach = cfg.Machine.Name
	}
	cfg.Machine = nil
	// The predictor config enters by canonical key for the same reason the
	// machine enters by name: %+v on a pointer field would render a
	// process-local address, not the configuration.
	pred := cfg.Predictor.Key()
	cfg.Predictor = nil
	// The control config also holds a pointer (the branch-predictor spec),
	// so it too enters by canonical key rather than %+v.
	ctrl := cfg.Control.Key()
	cfg.Control = machine.ControlConfig{}
	return fmt.Sprintf("mach=%s pred=%s ctrl=%s %+v", mach, pred, ctrl, cfg)
}

// Run implements Pass.
func (c Speculate) Run(ctx *Ctx, p *ir.Program) error {
	if ctx.Prof == nil {
		return fmt.Errorf("speculate: no value profile on ctx (missing profile pass?)")
	}
	res, err := speculate.Transform(p, ctx.Prof, c.Cfg)
	if err != nil {
		return err
	}
	ctx.Spec = res
	ctx.Prog = res.Prog
	ctx.Schemes = make(map[int]profile.Scheme, len(res.Sites))
	for _, site := range res.Sites {
		ctx.Schemes[site.ID] = site.Scheme
	}
	return nil
}

// Schedule list-schedules every block of the current program for
// ctx.Machine and publishes the whole-program schedule as ctx.Sched. It
// reads the program (speculation-aware DDG construction) without mutating
// it.
type Schedule struct{ DDG ddg.Options }

// Name implements Pass.
func (Schedule) Name() string { return "schedule" }

// Mutates reports that scheduling reads the program without modifying it.
func (Schedule) Mutates() bool { return false }

// Fingerprint keys events/keys on the DDG options.
func (s Schedule) Fingerprint() string { return fmt.Sprintf("%+v", s.DDG) }

// Run implements Pass.
func (s Schedule) Run(ctx *Ctx, p *ir.Program) error {
	if ctx.Machine == nil {
		return fmt.Errorf("schedule: no machine description on ctx")
	}
	ps := &sched.ProgSched{Prog: p, Funcs: map[string]*sched.FuncSched{}}
	for _, f := range p.Funcs {
		fs := &sched.FuncSched{F: f, Blocks: make([]*sched.BlockSched, len(f.Blocks))}
		for i, b := range f.Blocks {
			g := speculate.BuildGraph(b, ctx.Machine, s.DDG)
			fs.Blocks[i] = sched.ScheduleBlock(b, g, ctx.Machine)
			if err := fs.Blocks[i].Validate(g, ctx.Machine); err != nil {
				return fmt.Errorf("%s b%d: %w", f.Name, i, err)
			}
		}
		ps.Funcs[f.Name] = fs
	}
	ctx.Sched = ps
	return nil
}

// Decode lowers the scheduled program into the simulator's dense execution
// image (core.Image): flat per-block op arrays, precomputed operand lists
// and Synchronization-bit masks, dense prediction-site IDs. It runs after
// Schedule and publishes ctx.Image. The image is immutable and safe to
// share — callers cache it per (program, schedule, machine) and bind any
// number of simulators or batches to it.
//
// Decode is deliberately not Cacheable: the manager's memoized prefix
// state carries only (Prog, Prof), so an image must be produced by a live
// pass (or cached by the caller under the plan key, as internal/exp does).
type Decode struct{}

// Name implements Pass.
func (Decode) Name() string { return "decode" }

// Mutates reports that decoding reads the program without modifying it.
func (Decode) Mutates() bool { return false }

// Fingerprint contributes the image format version to derived cache keys,
// so caller-side image caches invalidate when the format evolves.
func (Decode) Fingerprint() string { return core.ImageFormatVersion }

// Run implements Pass.
func (Decode) Run(ctx *Ctx, p *ir.Program) error {
	if ctx.Machine == nil {
		return fmt.Errorf("decode: no machine description on ctx")
	}
	if ctx.Sched == nil {
		return fmt.Errorf("decode: no schedule on ctx (run the schedule pass first)")
	}
	img, err := core.DecodeImage(p, ctx.Sched, ctx.Machine)
	if err != nil {
		return err
	}
	ctx.Image = img
	return nil
}
