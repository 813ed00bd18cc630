package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// metricDef names one reported metric. The end-to-end and per-layer lists
// below are the ones BENCHMARK.json declares; main_test.go keeps the two in
// step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Simulated marks a quantity of the modelled machine rather than of the
	// host running the simulator.
	Simulated bool
}

// endToEnd is what a user of the simulator sees: set-up cost, request or
// pass time, simulation throughput, the simulated result, and host memory.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "pass_s", Unit: "s", Better: "lower"},
	{Name: "mcycles_per_s", Unit: "Mcycles/s", Better: "higher"},
	{Name: "sim_cycles", Unit: "cycles", Better: "lower", Simulated: true},
	{Name: "speedup_geomean", Unit: "ratio", Better: "higher", Simulated: true},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower"},
}

// perLayer is what the traced run reports: each layer's host time, work
// counts at the same boundary, and the simulated machine's own counters.
var perLayer = []metricDef{
	{Name: "lower.ms", Unit: "ms", Better: "lower"},
	{Name: "opt.ms", Unit: "ms", Better: "lower"},
	{Name: "profile.ms", Unit: "ms", Better: "lower"},
	{Name: "schedule.ms", Unit: "ms", Better: "lower"},
	{Name: "decode.ms", Unit: "ms", Better: "lower"},
	{Name: "simulate.base_ms", Unit: "ms", Better: "lower"},
	{Name: "interp.ms", Unit: "ms", Better: "lower"},
	{Name: "speculate.ms", Unit: "ms", Better: "lower"},
	{Name: "render.ms", Unit: "ms", Better: "lower"},
	{Name: "simulate.spec_ms", Unit: "ms", Better: "lower"},
	{Name: "unattributed.ms", Unit: "ms", Better: "lower"},
	{Name: "request.ms", Unit: "ms", Better: "lower"},
	{Name: "trace.request_ms", Unit: "ms", Better: "lower"},
	{Name: "request.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "lower.ir_ops", Unit: "count", Better: "lower"},
	{Name: "opt.ir_ops", Unit: "count", Better: "lower"},
	{Name: "profile.dyn_loads", Unit: "count", Better: "lower"},
	{Name: "profile.ns_per_load", Unit: "ns", Better: "lower"},
	{Name: "profile.allocs", Unit: "count", Better: "lower"},
	{Name: "speculate.sites", Unit: "count", Better: "higher"},
	{Name: "schedule.instrs", Unit: "count", Better: "lower"},
	{Name: "render.bytes", Unit: "bytes", Better: "lower"},
	{Name: "interp.steps", Unit: "count", Better: "lower"},
	{Name: "simulate.allocs", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.allocs_per_run", Unit: "count", Better: "lower"},
	{Name: "sim.cycles", Unit: "cycles", Better: "lower", Simulated: true},
	{Name: "sim.instrs", Unit: "count", Better: "lower", Simulated: true},
	{Name: "sim.ops", Unit: "count", Better: "lower", Simulated: true},
	{Name: "sim.ops_per_instr", Unit: "ratio", Better: "higher", Simulated: true},
	{Name: "sim.predictions", Unit: "count", Better: "higher", Simulated: true},
	{Name: "sim.pred_accuracy", Unit: "ratio", Better: "higher", Simulated: true},
	{Name: "sim.suppressed", Unit: "count", Better: "lower", Simulated: true},
	{Name: "sim.suppressed_wrong", Unit: "count", Better: "higher", Simulated: true},
	{Name: "sim.cce_executed", Unit: "count", Better: "lower", Simulated: true},
	{Name: "sim.cce_flushed", Unit: "count", Better: "lower", Simulated: true},
	{Name: "sim.max_ccb", Unit: "entries", Better: "lower", Simulated: true},
	{Name: "sim.stall_sync", Unit: "cycles", Better: "lower", Simulated: true},
	{Name: "sim.stall_score", Unit: "cycles", Better: "lower", Simulated: true},
	{Name: "sim.stall_ccb", Unit: "cycles", Better: "lower", Simulated: true},
	{Name: "sim.stall_barrier", Unit: "cycles", Better: "lower", Simulated: true},
	{Name: "sim.stall_recovery", Unit: "cycles", Better: "lower", Simulated: true},
	{Name: "sim.stall_redirect", Unit: "cycles", Better: "lower", Simulated: true},
	{Name: "sim.stall_ifetch", Unit: "cycles", Better: "lower", Simulated: true},
	{Name: "sim.branch_predicts", Unit: "count", Better: "higher", Simulated: true},
	{Name: "sim.branch_mispredicts", Unit: "count", Better: "lower", Simulated: true},
	{Name: "sim.branch_flushed", Unit: "count", Better: "lower", Simulated: true},
	{Name: "sim.d_misses", Unit: "count", Better: "lower", Simulated: true},
	{Name: "sim.d_hit_ratio", Unit: "ratio", Better: "higher", Simulated: true},
	{Name: "sim.i_misses", Unit: "count", Better: "lower", Simulated: true},
	{Name: "sim.pref_issued", Unit: "count", Better: "lower", Simulated: true},
	{Name: "sim.pref_useful_ratio", Unit: "ratio", Better: "higher", Simulated: true},
	{Name: "sim.unaccounted_cycles", Unit: "cycles", Better: "lower", Simulated: true},
}

// quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spreads printed here are the ones a reader of the same samples computes
// in Python. One sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// summary is one metric of one run: its per-pass samples and their
// quartiles.
type summary struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
}

func summarize(d metricDef, samples []float64) summary {
	q1, med, q3 := quartiles(samples)
	return summary{Unit: d.Unit, Better: d.Better, Samples: samples, Median: med, Q1: q1, Q3: q3, N: len(samples)}
}

// record is everything one run measured; -json writes it and -compare
// reads it back.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	GoVersion string             `json:"go_version"`
	NProc     int                `json:"nproc"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
}

// wallTimes are the wall-clock times behind setup_s and pass_s, which are
// in reference seconds (see clock.go). They are printed and recorded, not
// gated.
var wallTimes = []metricDef{
	{Name: "wall.setup_s", Unit: "s", Better: "lower"},
	{Name: "wall.pass_s", Unit: "s", Better: "lower"},
}

// defs is the metric list BENCHMARK.json declares for a run of this kind.
func (rec *record) defs() []metricDef {
	if rec.Trace {
		return perLayer
	}
	return endToEnd
}

// shown is defs plus what an untraced run prints and records besides.
func (rec *record) shown() []metricDef {
	if rec.Trace {
		return perLayer
	}
	return append(append([]metricDef(nil), endToEnd...), wallTimes...)
}

// printTable writes one line per metric: name, unit, median, quartiles and
// sample count.
func (rec *record) printTable(w io.Writer) {
	fmt.Fprintf(w, "vpbench %s seed=%d trace=%t %s nproc=%d attempted=%d failed=%d fail_ratio=%g\n",
		rec.Workload, rec.Seed, rec.Trace, rec.GoVersion, rec.NProc, rec.Attempted, rec.Failed,
		float64(rec.Failed)/float64(max(rec.Attempted, 1)))
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tkind\tmedian\tq1\tq3\tn")
	for _, d := range rec.shown() {
		s := rec.Metrics[d.Name]
		kind := "host"
		if d.Simulated {
			kind = "simulated"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%d\n", d.Name, d.Unit, kind, s.Median, s.Q1, s.Q3, s.N)
	}
	tw.Flush()
}

// resultLine is the one-line JSON summary a run ends its standard output
// with.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rec *record) resultLine() resultLine {
	out := resultLine{
		Correct:   rec.Failed == 0,
		Attempted: rec.Attempted,
		Failed:    rec.Failed,
		Metrics:   map[string]resultValue{},
	}
	for _, d := range rec.defs() {
		out.Metrics[d.Name] = resultValue{Value: rec.Metrics[d.Name].Median, Unit: d.Unit}
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// benchSpec is the part of BENCHMARK.json -compare needs: each end-to-end
// metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict compares the per-run medians of one metric on one workload,
// parent against change, by the rule of the choosing-metrics guide (§8):
//
//   - better: the change wins at least nine tenths of the index-aligned
//     pairs and the medians differ by more than the parent's quartile
//     spread;
//   - unresolved: either side's quartile spread, as a share of its median,
//     is wider than the bound, unless every change run reads better than
//     every parent run;
//   - worse: the change median is worse than the parent median by more than
//     the bound;
//   - same: otherwise.
//
// A metric that repeats exactly on both sides (a simulated count) is
// compared exactly: any difference is better or worse.
func verdict(parent, change []float64, better string, bound float64) (string, string) {
	pq1, pm, pq3 := quartiles(parent)
	cq1, cm, cq3 := quartiles(change)
	worseBy := func(a, b float64) float64 { // how much worse b is than a, as a share of a
		if better == "higher" {
			return (a - b) / math.Abs(a)
		}
		return (b - a) / math.Abs(a)
	}
	detail := fmt.Sprintf("parent %.6g [%.6g, %.6g] change %.6g [%.6g, %.6g] bound %g",
		pm, pq1, pq3, cm, cq1, cq3, bound)
	if constant(parent) && constant(change) {
		switch d := worseBy(pm, cm); {
		case d > 0:
			return "worse", detail
		case d < 0:
			return "better", detail
		}
		return "same", detail
	}
	wins, pairs := 0, min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		if worseBy(parent[i], change[i]) < 0 {
			wins++
		}
	}
	if pairs > 0 && wins*10 >= pairs*9 && math.Abs(cm-pm) > pq3-pq1 {
		return "better", detail
	}
	spread := max((pq3-pq1)/math.Abs(pm), (cq3-cq1)/math.Abs(cm))
	if spread > bound {
		allBetter := true
		for _, p := range parent {
			for _, c := range change {
				allBetter = allBetter && worseBy(p, c) < 0
			}
		}
		if !allBetter {
			return "unresolved", fmt.Sprintf("%s spread %.3g", detail, spread)
		}
		return "same", detail
	}
	if worseBy(pm, cm) > bound {
		return "worse", detail
	}
	return "same", detail
}

func constant(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// compare reads parent and change run records (-json files of untraced
// runs), groups them by workload, and prints one row per workload with a
// verdict per end-to-end metric. It returns 1 when any pair is worse.
func compare(spec *benchSpec, parentFiles, changeFiles []string, w io.Writer) (int, error) {
	load := func(files []string) (map[string][]*record, error) {
		out := map[string][]*record{}
		for _, f := range files {
			rec := &record{}
			if err := readJSON(f, rec); err != nil {
				return nil, err
			}
			if rec.Trace {
				return nil, fmt.Errorf("%s: a traced run has no end-to-end metrics", f)
			}
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
		return out, nil
	}
	parents, err := load(parentFiles)
	if err != nil {
		return 2, err
	}
	changes, err := load(changeFiles)
	if err != nil {
		return 2, err
	}
	var names []string
	for name := range parents {
		if changes[name] != nil {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return 2, fmt.Errorf("no workload has runs on both sides")
	}
	sort.Strings(names)
	medians := func(recs []*record, metric string) []float64 {
		out := make([]float64, len(recs))
		for i, r := range recs {
			out[i] = r.Metrics[metric].Median
		}
		return out
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	header := []string{"workload"}
	for _, m := range spec.EndToEnd {
		header = append(header, m.Name)
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	var notes []string
	code := 0
	for _, name := range names {
		row := []string{fmt.Sprintf("%s (%d/%d runs)", name, len(parents[name]), len(changes[name]))}
		for _, m := range spec.EndToEnd {
			v, detail := verdict(medians(parents[name], m.Name), medians(changes[name], m.Name), m.Better, m.Bound)
			row = append(row, v)
			if v != "same" {
				notes = append(notes, fmt.Sprintf("%s %s %s: %s", name, m.Name, v, detail))
			}
			if v == "worse" {
				code = 1
			}
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
	return code, nil
}
