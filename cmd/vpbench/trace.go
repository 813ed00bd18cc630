package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"vliwvp/internal/core"
	"vliwvp/internal/exp"
	"vliwvp/internal/interp"
	"vliwvp/internal/ir"
	"vliwvp/internal/pipeline"
	"vliwvp/internal/profile"
	"vliwvp/internal/sched"
)

// span is one call into a layer, or the request or pass that encloses such
// calls.
type span struct {
	Name   string
	Req    string        // request id: workload/pass/kernel
	Parent int           // index of the enclosing span; -1 for a pass
	Start  time.Duration // since the tracer started
	End    time.Duration
}

// tracer keeps spans in memory; writeChrome writes them out when the run
// ends.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int    // index of the innermost open span
	req   string // request id given to new spans
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

// do runs fn as a span named name inside the innermost open span and
// returns the span's duration.
func (t *tracer) do(name string, fn func() error) (time.Duration, error) {
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Req: t.req, Parent: t.cur})
	parent := t.cur
	t.cur = i
	t.spans[i].Start = time.Since(t.t0)
	err := fn()
	t.spans[i].End = time.Since(t.t0)
	t.cur = parent
	return t.spans[i].End - t.spans[i].Start, err
}

// spansPerKernel bounds the spans one kernel adds to a traced iteration:
// the untraced and the traced request and the traced request's layer
// calls, or one warm run.
const spansPerKernel = 16

// reserve makes room for n more spans, so that recording them allocates
// nothing inside the windows whose allocations are counted.
func (t *tracer) reserve(n int) { t.spans = slices.Grow(t.spans, n) }

// writeChrome writes the spans in the Chrome trace-event format, which
// chrome://tracing and ui.perfetto.dev open.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	evs := make([]event, len(t.spans))
	for i, sp := range t.spans {
		parent := ""
		if sp.Parent >= 0 {
			parent = t.spans[sp.Parent].Name
		}
		evs[i] = event{Name: sp.Name, Ph: "X", Ts: us(sp.Start), Dur: us(sp.End - sp.Start), Pid: 1, Tid: 1,
			Args: map[string]string{"req": sp.Req, "parent": parent}}
	}
	return writeJSON(path, map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// layerMetric maps each layer span of a traced request to its time metric.
// Their sum plus unattributed.ms is the untraced request time.
var layerMetric = map[string]string{
	"lower":         "lower.ms",
	"opt":           "opt.ms",
	"profile":       "profile.ms",
	"schedule":      "schedule.ms",
	"decode":        "decode.ms",
	"simulate.base": "simulate.base_ms",
	"interp":        "interp.ms",
	"speculate":     "speculate.ms",
	"render":        "render.ms",
	"simulate.spec": "simulate.spec_ms",
}

// mallocsDuring returns how many heap objects fn allocated. The memory
// statistics are read outside any span, so spans do not time the reads.
func mallocsDuring(fn func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), err
}

// traceRun is the traced run. After one set-up and one warm-up pass, each
// iteration until seconds have passed sends every kernel's cold request
// twice in a row: untraced, as the reference for unattributed.ms, and then
// calling every layer separately inside a span. On warm workloads a warm
// pass with a span per kernel follows. Times are in reference
// milliseconds, as the timed run's are in reference seconds (see
// clock.go). It returns one sample per iteration of every per-layer
// metric.
func (b *bench) traceRun(seconds float64, t *tracer) (map[string][]float64, error) {
	if err := b.setup(); err != nil {
		return nil, err
	}
	b.pass()
	s := map[string][]float64{}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		v := map[string]float64{}
		var sc simCounts
		t.reserve(spansPerKernel*len(b.kernels) + 2)
		b.timed(func() {
			_, _ = t.do("pass", func() error {
				for k, kern := range b.kernels {
					t.req = fmt.Sprintf("%s/p%d/%s", b.def.name, i, kern.Name)
					b.clk.lap()
					b.untracedRequest(t, k, v)
					b.clk.lap()
					d, err := t.do("request", func() error { return b.tracedRequest(t, b.runner(), k, v, &sc) })
					v["trace.request_ms"] += 1000 * b.clk.ref(d)
					b.tally(err)
				}
				return nil
			})
		})
		sc.metrics(v)
		var layers float64
		for _, m := range layerMetric {
			layers += v[m]
		}
		v["unattributed.ms"] = v["request.ms"] - layers
		v["profile.ns_per_load"] = v["profile.ms"] * 1e6 / v["profile.dyn_loads"]
		v["sim.ns_per_cycle"] = v["simulate.spec_ms"] * 1e6 / float64(sc.cycles)
		v["sim.allocs_per_run"] = v["simulate.allocs"] / float64(2*len(b.kernels))
		if b.def.warm {
			b.timed(func() { b.tracedWarmPass(t, i, v) })
		}
		for _, d := range perLayer {
			s[d.Name] = append(s[d.Name], v[d.Name])
		}
	}
	return s, nil
}

// untracedRequest sends kernel k's cold request as a timed pass does, as
// one span, and adds its time, allocation and collections to v.
func (b *bench) untracedRequest(t *tracer, k int, v map[string]float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, err := t.do("untraced", func() error {
		_, err := b.request(b.runner(), k)
		return err
	})
	runtime.ReadMemStats(&m1)
	b.tally(err)
	v["request.ms"] += 1000 * b.clk.ref(d)
	v["request.alloc_mb"] += float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	v["runtime.gc_cycles"] += float64(m1.NumGC - m0.NumGC)
	v["runtime.gc_pause_ms"] += float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
}

// tracedRequest repeats exp.Runner.Speedup for kernel k from outside the
// runner: each pass of the runner's FrontPlan, SchedulePlan (baseline) and
// SpecPlan runs as a one-pass plan, then the schedule is rendered, both
// programs are simulated, and the front-end program is interpreted. Every
// call is a span; v collects the layer times, in reference milliseconds of
// b.clk, and counts, sc the speculative run's simulated counters.
func (b *bench) tracedRequest(t *tracer, r *exp.Runner, k int, v map[string]float64, sc *simCounts) error {
	kern := b.kernels[k]
	m := pipeline.NewManager()
	layer := func(name string, fn func() error) error {
		d, err := t.do(name, fn)
		v[layerMetric[name]] += 1000 * b.clk.ref(d)
		return err
	}
	runPlan := func(plan pipeline.Plan, ctx *pipeline.Ctx) error {
		for _, p := range plan.Passes {
			one := pipeline.Plan{Name: plan.Name, Passes: []pipeline.Pass{p}}
			run := func() error { return layer(p.Name(), func() error { return m.Run(one, ctx) }) }
			var err error
			if p.Name() == "profile" {
				var allocs float64
				allocs, err = mallocsDuring(run)
				v["profile.allocs"] += allocs
			} else {
				err = run()
			}
			if err != nil {
				return fmt.Errorf("%s: %w", kern.Name, err)
			}
			countPass(p.Name(), ctx, v)
		}
		return nil
	}
	simulate := func(name string, img *core.Image, schemes map[int]profile.Scheme) (*core.Simulator, uint64, error) {
		var sim *core.Simulator
		var got uint64
		allocs, err := mallocsDuring(func() error {
			return layer(name, func() error {
				sim = core.NewSimulatorFromImage(img, schemes)
				sim.MemCfg = r.Mem
				sim.PredCfg = r.Cfg.Predictor
				sim.Control = r.Cfg.Control
				var err error
				got, err = sim.Run("main")
				return err
			})
		})
		v["simulate.allocs"] += allocs
		if err != nil {
			return nil, 0, fmt.Errorf("%s %s: %w", kern.Name, name, err)
		}
		return sim, got, nil
	}

	// Front end: lower, opt, profile.
	fe := &pipeline.Ctx{Source: kern.Source, Machine: r.D}
	if err := runPlan(r.FrontPlan(), fe); err != nil {
		return err
	}

	// Baseline: schedule and decode the front-end program, simulate it.
	base := &pipeline.Ctx{Prog: fe.Prog, Machine: r.D, Shared: true}
	if err := runPlan(r.SchedulePlan(), base); err != nil {
		return err
	}
	_, got, err := simulate("simulate.base", base.Image, nil)
	if err != nil {
		return err
	}
	if got != b.refs[k] {
		return fmt.Errorf("%s: baseline result %d != interpreter reference %d", kern.Name, got, b.refs[k])
	}

	// The runner's own interpreter check of the front-end program.
	err = layer("interp", func() error {
		im := interp.New(fe.Prog)
		var err error
		got, err = im.RunMain()
		v["interp.steps"] += float64(im.Steps)
		return err
	})
	if err != nil {
		return fmt.Errorf("%s interp: %w", kern.Name, err)
	}
	if got != b.refs[k] {
		return fmt.Errorf("%s: interpreter result %d != reference %d", kern.Name, got, b.refs[k])
	}

	// Speculation: speculate, schedule, decode, render, simulate.
	spec := &pipeline.Ctx{Prog: fe.Prog, Prof: fe.Prof, Machine: r.D, Shared: true}
	if err := runPlan(r.SpecPlan(), spec); err != nil {
		return err
	}
	_ = layer("render", func() error {
		v["render.bytes"] += float64(len(exp.RenderSchedule(spec.Prog, spec.Sched)))
		return nil
	})
	sim, got, err := simulate("simulate.spec", spec.Image, spec.Schemes)
	if err != nil {
		return err
	}
	if err := b.check(k, got, sim.Cycles); err != nil {
		return err
	}
	sc.add(sim)
	return nil
}

// tracedWarmPass re-simulates every compiled image on the pooled batch with
// a span per kernel; it runs under b.clk. On warm workloads it, not the
// cold request, gives sim.ns_per_cycle and sim.allocs_per_run.
func (b *bench) tracedWarmPass(t *tracer, i int, v map[string]float64) {
	var cycles, allocs, spent float64
	_, _ = t.do("warm", func() error {
		for k := range b.items {
			b.clk.lap()
			it := &b.items[k]
			t.req = fmt.Sprintf("%s/p%d/%s", b.def.name, i, it.Name)
			var sim *core.Simulator
			var got uint64
			var d time.Duration
			a, err := mallocsDuring(func() error {
				var err error
				d, err = t.do("simulate.warm", func() error {
					sim = b.batch.SimFor(it)
					var err error
					got, err = sim.Run("main")
					return err
				})
				return err
			})
			if err == nil {
				err = b.check(k, got, sim.Cycles)
			}
			if b.tally(err) {
				cycles += float64(sim.Cycles)
				allocs += a
				spent += b.clk.ref(d)
			}
		}
		return nil
	})
	v["sim.ns_per_cycle"] = spent * 1e9 / cycles
	v["sim.allocs_per_run"] = allocs / float64(len(b.items))
}

// countPass records the work count of the pass that has just run on ctx.
func countPass(name string, ctx *pipeline.Ctx, v map[string]float64) {
	switch name {
	case "lower":
		v["lower.ir_ops"] += irOps(ctx.Prog)
	case "opt":
		v["opt.ir_ops"] += irOps(ctx.Prog)
	case "profile":
		for _, lp := range ctx.Prof.Loads {
			v["profile.dyn_loads"] += float64(lp.Count)
		}
	case "speculate":
		v["speculate.sites"] += float64(len(ctx.Spec.Sites))
	case "schedule":
		v["schedule.instrs"] += schedInstrs(ctx.Sched)
	}
}

func irOps(p *ir.Program) float64 {
	n := 0
	for _, f := range p.Funcs {
		for _, blk := range f.Blocks {
			n += len(blk.Ops)
		}
	}
	return float64(n)
}

// schedInstrs counts the long instructions of a whole-program schedule.
func schedInstrs(ps *sched.ProgSched) float64 {
	n := 0
	for _, fs := range ps.Funcs {
		for _, bs := range fs.Blocks {
			n += bs.Length()
		}
	}
	return float64(n)
}

// simCounts sums the counters of the speculative runs of one pass.
type simCounts struct {
	cycles, instrs, ops                              int64
	predictions, mispredicts, suppressed, suppWrong  int64
	cceExecuted, cceFlushed, maxCCB                  int64
	stallSync, stallScore, stallCCB, stallBar        int64
	stallRecovery, stallRedirect, stallIFetch        int64
	branchPredicts, branchMispredicts, branchFlushed int64
	dHits, dMisses, iMisses, prefIssued, prefUseful  int64
}

func (c *simCounts) add(s *core.Simulator) {
	c.cycles += s.Cycles
	c.instrs += s.Instrs
	c.ops += s.Ops
	c.predictions += s.Predictions
	c.mispredicts += s.Mispredicts
	c.suppressed += s.Suppressed
	c.suppWrong += s.SuppressedWrong
	c.cceExecuted += s.CCEExecuted
	c.cceFlushed += s.CCEFlushed
	c.maxCCB = max(c.maxCCB, int64(s.MaxCCBOccupancy))
	c.stallSync += s.StallSync
	c.stallScore += s.StallScore
	c.stallCCB += s.StallCCB
	c.stallBar += s.StallBar
	c.stallRecovery += s.StallRecovery
	c.stallRedirect += s.StallRedirect
	c.stallIFetch += s.StallIFetch
	c.branchPredicts += s.BranchPredicts
	c.branchMispredicts += s.BranchMispredicts
	c.branchFlushed += s.BranchFlushed
	c.dHits += s.DHits
	c.dMisses += s.DMisses
	c.iMisses += s.IMisses
	c.prefIssued += s.PrefIssued
	c.prefUseful += s.PrefUseful
}

// ratio is a/b, and 0 when nothing was attempted.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (c *simCounts) metrics(v map[string]float64) {
	stalls := c.stallSync + c.stallScore + c.stallCCB + c.stallBar + c.stallRecovery + c.stallRedirect + c.stallIFetch
	for name, x := range map[string]int64{
		"sim.cycles":             c.cycles,
		"sim.instrs":             c.instrs,
		"sim.ops":                c.ops,
		"sim.predictions":        c.predictions,
		"sim.suppressed":         c.suppressed,
		"sim.suppressed_wrong":   c.suppWrong,
		"sim.cce_executed":       c.cceExecuted,
		"sim.cce_flushed":        c.cceFlushed,
		"sim.max_ccb":            c.maxCCB,
		"sim.stall_sync":         c.stallSync,
		"sim.stall_score":        c.stallScore,
		"sim.stall_ccb":          c.stallCCB,
		"sim.stall_barrier":      c.stallBar,
		"sim.stall_recovery":     c.stallRecovery,
		"sim.stall_redirect":     c.stallRedirect,
		"sim.stall_ifetch":       c.stallIFetch,
		"sim.branch_predicts":    c.branchPredicts,
		"sim.branch_mispredicts": c.branchMispredicts,
		"sim.branch_flushed":     c.branchFlushed,
		"sim.d_misses":           c.dMisses,
		"sim.i_misses":           c.iMisses,
		"sim.pref_issued":        c.prefIssued,
		"sim.unaccounted_cycles": c.cycles - c.instrs - stalls,
	} {
		v[name] = float64(x)
	}
	v["sim.ops_per_instr"] = ratio(c.ops, c.instrs)
	v["sim.pred_accuracy"] = ratio(c.predictions-c.mispredicts, c.predictions)
	v["sim.d_hit_ratio"] = ratio(c.dHits, c.dHits+c.dMisses)
	v["sim.pref_useful_ratio"] = ratio(c.prefUseful, c.prefIssued)
}
