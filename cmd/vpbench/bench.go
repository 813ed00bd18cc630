package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"vliwvp/internal/core"
	"vliwvp/internal/exp"
	"vliwvp/internal/exp/cache"
	"vliwvp/internal/interp"
	"vliwvp/internal/machine"
	"vliwvp/internal/predict"
	"vliwvp/internal/workload"
)

// workloadDef is one named workload: which kernels a pass requests, under
// which machine configuration, and whether a pass compiles (cold) or only
// re-simulates images compiled in set-up (warm).
type workloadDef struct {
	name   string
	warm   bool
	gen    int    // progen kernels; 0 selects the eight stock kernels
	pred   string // value-predictor spec; "" is the paper's profiled selection
	mem    *machine.MemConfig
	branch string // branch-predictor spec; "" is the machine without one
}

// workloads are the benchmark's workloads. README.md gives the reason for
// each; in short: cold-spec is the paper's E7 request, where value
// profiling dominates; cold-gen moves the cold cost onto the small-program
// layers; warm-flat runs only the engine; warm-full drives the engine's
// memory, branch and gating paths.
var workloads = []workloadDef{
	{name: "cold-spec"},
	{name: "cold-gen", gen: 48, pred: "auto"},
	{name: "warm-flat", warm: true},
	{name: "warm-full", warm: true, pred: "vtage:conf=2", mem: machine.MemL2PF, branch: "tage"},
}

// genSeed is the first progen seed of the cold-gen corpus. The corpus is
// fixed so that every run of the workload does the same work; -seed orders
// the requests (see newBench).
const genSeed = 1

// maxLoggedFailures bounds the failure lines one run writes to stderr.
const maxLoggedFailures = 10

func workloadByName(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// bench is one run's state. It runs one closed-loop client: every request
// starts after the previous one has finished, and nothing here starts a
// goroutine (Runner.Jobs is 1).
type bench struct {
	def     workloadDef
	kernels []*workload.Benchmark // in request order
	pred    *predict.Config
	ctrl    machine.ControlConfig
	log     io.Writer

	refs []uint64 // sequential-interpreter result of each kernel
	want []int64  // speculative cycles of each kernel, pinned by the first run of it

	// clk is set while timed work runs; the kernel loops lap it, so long
	// passes recalibrate between kernels.
	clk *clock
	cal *calibrator // dropped before heap_live_mb is measured

	// Warm workloads only: the set-up request's rows and the compiled
	// images every pass re-simulates on one pooled batch.
	rows    []exp.SpeedupRow
	items   []core.BatchItem
	batch   *core.Batch
	results []core.BatchResult // one item's result, reused

	attempted, failed int
}

// newBench prepares a run of def. The seed permutes the order in which a
// pass requests the kernels: the same seed gives the same inputs, and the
// work a pass measures, and so every simulated metric, is the same for
// every seed.
func newBench(def workloadDef, seed int64, log io.Writer) (*bench, error) {
	kernels := workload.All()
	if def.gen > 0 {
		kernels = workload.Generated(genSeed, def.gen)
	}
	order := rand.New(rand.NewSource(seed)).Perm(len(kernels))
	b := &bench{def: def, kernels: make([]*workload.Benchmark, len(kernels)), log: log, cal: newCalibrator()}
	for i, k := range order {
		b.kernels[i] = kernels[k]
	}
	if def.pred != "" {
		p, err := predict.Parse(def.pred)
		if err != nil {
			return nil, err
		}
		b.pred = p
	}
	if def.branch != "" {
		br, err := predict.ParseBranch(def.branch)
		if err != nil {
			return nil, err
		}
		b.ctrl = machine.DefaultControl()
		b.ctrl.Branch = br
	}
	return b, nil
}

// runner returns an experiment runner for the workload's configuration on
// the paper's 4-wide machine, with an empty compile cache of its own.
func (b *bench) runner() *exp.Runner {
	r := exp.NewRunner(machine.W4)
	r.Cache = cache.New()
	r.Jobs = 1
	r.Mem = b.def.mem
	r.Cfg.Predictor = b.pred
	r.Cfg.Control = b.ctrl
	return r
}

// setup computes each kernel's interpreter reference and, on warm
// workloads, runs one cold request per kernel and keeps the compiled
// images on a fresh pooled batch.
func (b *bench) setup() error {
	n := len(b.kernels)
	b.refs = make([]uint64, n)
	for k, kern := range b.kernels {
		prog, err := kern.Compile()
		if err != nil {
			return err
		}
		if b.refs[k], err = interp.New(prog).RunMain(); err != nil {
			return fmt.Errorf("%s: reference run: %w", kern.Name, err)
		}
	}
	if b.want == nil {
		b.want = make([]int64, n)
	}
	if !b.def.warm {
		return nil
	}
	r := b.runner()
	b.rows = make([]exp.SpeedupRow, n)
	for k := range b.kernels {
		b.clk.lap()
		row, err := b.request(r, k)
		if err != nil {
			return err
		}
		b.rows[k] = row
	}
	items, err := r.BatchItems(b.kernels)
	if err != nil {
		return err
	}
	b.items = items
	b.batch = core.NewBatch()
	b.batch.Mem = r.Mem
	b.batch.Pred = r.Cfg.Predictor
	b.batch.Ctrl = r.Cfg.Control
	b.results = make([]core.BatchResult, 0, 1)
	return nil
}

var errNoInterp = errors.New("the request ran no interpreter check")

// interpKeyPrefix marks the entries in which an exp.Runner memoizes its
// interpreter run of a kernel.
const interpKeyPrefix = "interp|"

// request runs the paper's E7 request (exp.Runner.Speedup) for kernel k on
// r. Speedup checks its baseline run against its own interpreter run and
// its speculative run against the baseline; request closes the chain by
// reading that interpreter result back from r's cache and comparing it with
// the reference computed in set-up.
func (b *bench) request(r *exp.Runner, k int) (exp.SpeedupRow, error) {
	interpKey := ""
	r.Cache.Hook = func(key string, _ bool) {
		if strings.HasPrefix(key, interpKeyPrefix) {
			interpKey = key
		}
	}
	row, err := r.Speedup(b.kernels[k])
	if err != nil {
		return row, err
	}
	v, err := r.Cache.Do(interpKey, func() (any, error) { return nil, errNoInterp })
	if err != nil {
		return row, fmt.Errorf("%s: %w", b.kernels[k].Name, err)
	}
	got, ok := v.(uint64)
	if !ok {
		return row, fmt.Errorf("%s: %w", b.kernels[k].Name, errNoInterp)
	}
	return row, b.check(k, got, row.SpecCycles)
}

// check compares one result with kernel k's interpreter reference and its
// speculative cycles with those of the kernel's first run.
func (b *bench) check(k int, value uint64, cycles int64) error {
	name := b.kernels[k].Name
	if value != b.refs[k] {
		return fmt.Errorf("%s: result %d != interpreter reference %d", name, value, b.refs[k])
	}
	if b.want[k] == 0 {
		b.want[k] = cycles
	} else if cycles != b.want[k] {
		return fmt.Errorf("%s: %d cycles != %d on its first run", name, cycles, b.want[k])
	}
	return nil
}

// tally counts one attempted operation and reports it if it failed.
func (b *bench) tally(err error) bool {
	b.attempted++
	if err == nil {
		return true
	}
	b.failed++
	if b.failed <= maxLoggedFailures {
		fmt.Fprintf(b.log, "vpbench %s: %v\n", b.def.name, err)
	}
	return false
}

// passStats is what one pass simulated.
type passStats struct {
	simulated int64   // every simulated cycle, baseline runs included
	spec      int64   // cycles of the speculative runs
	geomean   float64 // speedup of the speculative over the baseline runs
}

func (b *bench) pass() passStats {
	if b.def.warm {
		return b.warmPass()
	}
	return b.coldPass()
}

// coldPass sends one request per kernel, each on a runner with an empty
// compile cache.
func (b *bench) coldPass() passStats {
	var ps passStats
	speedups := make([]float64, 0, len(b.kernels))
	for k := range b.kernels {
		b.clk.lap()
		row, err := b.request(b.runner(), k)
		if !b.tally(err) {
			continue
		}
		ps.simulated += row.BaseCycles + row.SpecCycles
		ps.spec += row.SpecCycles
		speedups = append(speedups, row.Speedup)
	}
	ps.geomean = geomean(speedups)
	return ps
}

// warmPass re-simulates every compiled image on the pooled batch, one
// item at a time so that a timed pass can recalibrate between kernels. The
// speedup is the set-up request's: a warm pass runs no baseline.
func (b *bench) warmPass() passStats {
	var ps passStats
	for k := range b.items {
		b.clk.lap()
		b.results = b.batch.RunAllInto(b.results[:0], b.items[k:k+1])
		res := &b.results[0]
		err := res.Err
		if err == nil {
			err = b.check(k, res.Value, res.Cycles)
		}
		if b.tally(err) {
			ps.spec += res.Cycles
		}
	}
	ps.simulated = ps.spec
	speedups := make([]float64, len(b.rows))
	for k, row := range b.rows {
		speedups[k] = row.Speedup
	}
	ps.geomean = geomean(speedups)
	return ps
}

// geomean multiplies in sorted order, so the result does not depend on
// the seed's request order.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p := 1.0
	for _, x := range s {
		p *= x
	}
	return math.Pow(p, 1/float64(len(s)))
}

// timed runs fn under a fresh clock, from a collected heap so that a
// collection owed by earlier work is not charged to it, and returns its
// wall and reference seconds.
func (b *bench) timed(fn func()) (wall, ref float64) {
	runtime.GC()
	b.clk = &clock{cal: b.cal}
	defer func() { b.clk = nil }()
	return b.clk.measure(fn)
}

// timedSetups runs set-up at least n times and until a second has passed,
// and returns the setup_s samples; the last set-up's products are kept.
func (b *bench) timedSetups(n int) (map[string][]float64, error) {
	s := map[string][]float64{}
	start := time.Now()
	for len(s["setup_s"]) < n || time.Since(start) < time.Second {
		var err error
		wall, ref := b.timed(func() { err = b.setup() })
		if err != nil {
			return nil, err
		}
		s["setup_s"] = append(s["setup_s"], ref)
		s["wall.setup_s"] = append(s["wall.setup_s"], wall)
	}
	return s, nil
}

// timedPasses runs one untimed warm-up pass, then timed passes until
// seconds have passed (at least one), and adds the samples of the other
// end-to-end metrics to s. A CPU profile, when asked for, covers the timed
// passes and the calibrations between them.
func (b *bench) timedPasses(s map[string][]float64, seconds float64, cpuprofile string) error {
	b.pass()
	var prof *os.File
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		prof = f
	}
	start := time.Now()
	for len(s["pass_s"]) == 0 || time.Since(start).Seconds() < seconds {
		var ps passStats
		wall, ref := b.timed(func() { ps = b.pass() })
		s["pass_s"] = append(s["pass_s"], ref)
		s["wall.pass_s"] = append(s["wall.pass_s"], wall)
		s["mcycles_per_s"] = append(s["mcycles_per_s"], float64(ps.simulated)/1e6/ref)
		s["sim_cycles"] = append(s["sim_cycles"], float64(ps.spec))
		s["speedup_geomean"] = append(s["speedup_geomean"], ps.geomean)
	}
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return err
		}
	}
	// The calibrator's buffers are the benchmark's, not the program's.
	b.cal = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(b)
	s["heap_live_mb"] = []float64{float64(ms.HeapAlloc) / 1e6}
	return nil
}
