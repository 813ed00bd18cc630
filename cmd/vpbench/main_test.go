package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vliwvp/internal/workload"
)

// benchFile is BENCHMARK.json at the repository root.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	var f benchFile
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// shrunk returns a bench of the named workload that requests only the
// named kernels.
func shrunk(t *testing.T, name string, seed int64, keep ...string) *bench {
	t.Helper()
	def, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBench(def, seed, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var kept []*workload.Benchmark
	for _, k := range b.kernels {
		for _, n := range keep {
			if k.Name == n {
				kept = append(kept, k)
			}
		}
	}
	b.kernels = kept
	return b
}

// small is a bench of any workload cut to two stock or three progen
// kernels.
func small(t *testing.T, name string, seed int64) *bench {
	if def, _ := workloadByName(name); def.gen > 0 {
		return shrunk(t, name, seed, "gen1", "gen2", "gen3")
	}
	return shrunk(t, name, seed, "compress", "ijpeg")
}

// oneRun measures b with the timed set-ups and one timed pass and returns the
// printed output, its closing JSON line, and the exit code.
func oneRun(t *testing.T, b *bench, o options) (string, resultLine, int) {
	t.Helper()
	rec, err := measure(b, o)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := report(rec, o, &out)
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), lastLine(t, out.String()), code
}

func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result JSON: %v\n%s", err, out)
	}
	return res
}

// TestBenchmarkFileMatchesCommand keeps BENCHMARK.json and the metric and
// workload tables of this command in step.
func TestBenchmarkFileMatchesCommand(t *testing.T) {
	f := readBenchFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, vpbench %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: BENCHMARK.json %q (why %q), vpbench %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, vpbench %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, vpbench %+v", i, m, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, vpbench %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, vpbench %+v", i, m, d)
		}
	}
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	for span, metric := range layerMetric {
		if !declared[metric] {
			t.Errorf("layer span %q reports %q, which is not a per-layer metric", span, metric)
		}
	}
}

// TestEveryMetricPrinted runs each workload once untraced and once traced,
// on two kernels, and checks that every metric BENCHMARK.json names is
// printed with its unit, in the table and in the closing JSON line.
func TestEveryMetricPrinted(t *testing.T) {
	f := readBenchFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", w.name, traced), func(t *testing.T) {
				out, res, code := oneRun(t, small(t, w.name, 1), options{seed: 1, trace: traced})
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("code %d, result %+v\n%s", code, res, out)
				}
				want := map[string]string{}
				for _, m := range f.EndToEnd {
					if !traced {
						want[m.Name] = m.Unit
					}
				}
				for _, m := range f.PerLayer {
					if traced {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					v, ok := res.Metrics[name]
					if !ok || v.Unit != unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s: printed %+v (present %t), want unit %s", name, v, ok, unit)
					}
					if !hasTableLine(out, name, unit) {
						t.Errorf("%s: no table line with unit %s", name, unit)
					}
				}
				if !traced {
					for _, m := range []string{"setup_s", "pass_s", "mcycles_per_s", "sim_cycles", "speedup_geomean", "heap_live_mb"} {
						if res.Metrics[m].Value <= 0 {
							t.Errorf("%s = %g, want > 0", m, res.Metrics[m].Value)
						}
					}
				}
			})
		}
	}
}

// hasTableLine reports whether the table has a line starting with name and
// then unit.
func hasTableLine(out, name, unit string) bool {
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == name && f[1] == unit {
			return true
		}
	}
	return false
}

// TestCorruptedReferenceFails is the check's teeth: with one interpreter
// reference wrong, every request of that kernel fails, the result says so,
// and the exit code is not 0. Cold requests are checked through the
// runner's own interpreter run, warm ones directly.
func TestCorruptedReferenceFails(t *testing.T) {
	for _, name := range []string{"cold-spec", "warm-flat"} {
		t.Run(name, func(t *testing.T) {
			b := small(t, name, 1)
			if err := b.setup(); err != nil {
				t.Fatal(err)
			}
			b.refs[0] ^= 1
			samples := map[string][]float64{"setup_s": {1}, "wall.setup_s": {1}}
			if err := b.timedPasses(samples, 0, ""); err != nil {
				t.Fatal(err)
			}
			o := options{seed: 1}
			var out bytes.Buffer
			code, err := report(newRecord(b, o, samples), o, &out)
			if err != nil {
				t.Fatal(err)
			}
			res := lastLine(t, out.String())
			if code == 0 || res.Correct || res.Failed != 2 || res.Attempted != 4 {
				t.Fatalf("code %d, result %+v; want exit 1 and 2 of 4 failed", code, res)
			}
			if !strings.Contains(out.String(), "fail_ratio=0.5") {
				t.Errorf("table does not report fail_ratio=0.5:\n%s", out.String())
			}
		})
	}
}

// TestTracedRunMatchesUntraced checks that the traced run, which calls
// each layer separately, simulates exactly what the untraced run does, and
// that its layer times add up: their sum plus unattributed.ms is the
// untraced request, and the layer spans fit inside, and cover most of, the
// traced requests that enclose them.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, name := range []string{"cold-spec", "cold-gen", "warm-full"} {
		t.Run(name, func(t *testing.T) {
			_, untraced, _ := oneRun(t, small(t, name, 1), options{seed: 1})
			chrome := filepath.Join(t.TempDir(), "trace.json")
			_, traced, code := oneRun(t, small(t, name, 1), options{seed: 1, trace: true, traceOut: chrome})
			if code != 0 {
				t.Fatalf("traced run failed: %+v", traced)
			}
			m := func(name string) float64 { return traced.Metrics[name].Value }
			if got, want := m("sim.cycles"), untraced.Metrics["sim_cycles"].Value; got != want {
				t.Errorf("traced sim.cycles %g != untraced sim_cycles %g", got, want)
			}
			var layers float64
			for _, metric := range layerMetric {
				if m(metric) <= 0 {
					t.Errorf("%s = %g, want > 0", metric, m(metric))
				}
				layers += m(metric)
			}
			if sum := layers + m("unattributed.ms"); math.Abs(sum-m("request.ms")) > 1e-6*m("request.ms") {
				t.Errorf("layers %g + unattributed %g = %g, want request.ms %g", layers, m("unattributed.ms"), sum, m("request.ms"))
			}
			// One sample of two or three small kernels: the floor is coarse.
			if traced := m("trace.request_ms"); layers > traced || layers < 0.5*traced {
				t.Errorf("layer spans cover %g ms of the %g ms traced request", layers, traced)
			}

			var file struct {
				TraceEvents []struct {
					Name string            `json:"name"`
					Ph   string            `json:"ph"`
					Dur  float64           `json:"dur"`
					Args map[string]string `json:"args"`
				} `json:"traceEvents"`
			}
			if err := readJSON(chrome, &file); err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, e := range file.TraceEvents {
				seen[e.Name] = true
				if e.Ph != "X" || e.Dur < 0 {
					t.Errorf("bad event %+v", e)
				}
				if e.Name == "profile" && (e.Args["parent"] != "request" || !strings.HasPrefix(e.Args["req"], name+"/p0/")) {
					t.Errorf("profile span %+v is not inside a request of pass 0", e)
				}
			}
			for span := range layerMetric {
				if !seen[span] {
					t.Errorf("no %q span in the Chrome trace", span)
				}
			}
		})
	}
}

// TestSeedOrdersRequests pins what -seed does: the same seed gives the
// same request order and cycles, another seed another order, and every
// seed the same simulated work.
func TestSeedOrdersRequests(t *testing.T) {
	def, err := workloadByName("cold-gen")
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) ([]string, passStats) {
		b, err := newBench(def, seed, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.setup(); err != nil {
			t.Fatal(err)
		}
		ps := b.pass()
		if b.failed != 0 {
			t.Fatalf("seed %d: %d of %d requests failed", seed, b.failed, b.attempted)
		}
		var names []string
		for _, k := range b.kernels {
			names = append(names, k.Name)
		}
		return names, ps
	}
	names1, ps1 := run(1)
	again, psAgain := run(1)
	names2, ps2 := run(2)
	if strings.Join(names1, ",") != strings.Join(again, ",") || ps1 != psAgain {
		t.Errorf("seed 1 twice: %v %+v vs %v %+v", names1, ps1, again, psAgain)
	}
	if strings.Join(names1, ",") == strings.Join(names2, ",") {
		t.Errorf("seeds 1 and 2 request the kernels in the same order")
	}
	if ps1 != ps2 {
		t.Errorf("seed 2 simulated %+v, seed 1 %+v", ps2, ps1)
	}
}

// TestColdSpecMatchesPaperTable pins cold-spec to the paper's E7 path: its
// per-kernel baseline and speculative cycles and its speedup geomean equal
// the E7 rows of the golden tables fixture, which the test only reads.
func TestColdSpecMatchesPaperTable(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "exp", "testdata", "golden", "tables.txt"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(golden), "Dynamic dual-engine speedup (4-wide)\n")
	if !ok {
		t.Fatal("no E7 table in the fixture")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	want := map[string][]string{}
	for _, line := range strings.Split(table, "\n")[2:] {
		f := strings.Fields(line)
		want[f[0]] = f[1:]
	}

	def, err := workloadByName("cold-spec")
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBench(def, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	var speedups []float64
	var spec int64
	for k, kern := range b.kernels {
		row, err := b.request(b.runner(), k)
		if err != nil {
			t.Fatal(err)
		}
		w := want[kern.Name]
		if len(w) < 3 || w[0] != strconv.FormatInt(row.BaseCycles, 10) || w[1] != strconv.FormatInt(row.SpecCycles, 10) ||
			w[2] != fmt.Sprintf("%.3f", row.Speedup) {
			t.Errorf("%s: base %d spec %d speedup %.3f, fixture %v", kern.Name, row.BaseCycles, row.SpecCycles, row.Speedup, w)
		}
		speedups = append(speedups, row.Speedup)
		spec += row.SpecCycles
	}
	if len(speedups) != 8 || len(want) != 9 {
		t.Fatalf("%d kernels against %d fixture rows", len(speedups), len(want))
	}
	if got := fmt.Sprintf("%.3f", geomean(speedups)); got != want["geomean"][0] {
		t.Errorf("geomean %s, fixture %s", got, want["geomean"][0])
	}
	if spec != 10809640 {
		t.Errorf("sim_cycles %d, want 10809640", spec)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		// statistics.quantiles(in, n=4) in Python 3.
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := quartiles(c.in)
		if [3]float64{q1, med, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, med, q3, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{1, 1.5, 0.7, 1.2, 0.8, 1.4, 0.9, 1.3, 0.6, 1.1}
	for _, c := range []struct {
		name           string
		parent, change []float64
		better         string
		want           string
	}{
		{"unchanged", steady, scale(steady, 1.001), "lower", "same"},
		{"slower beyond bound", steady, scale(steady, 1.3), "lower", "worse"},
		{"slower within bound", steady, scale(steady, 1.05), "lower", "same"},
		{"faster", steady, scale(steady, 0.8), "lower", "better"},
		{"throughput up", steady, scale(steady, 1.3), "higher", "better"},
		{"throughput down", steady, scale(steady, 0.7), "higher", "worse"},
		{"spread wider than bound", noisy, scale(noisy, 1.05), "lower", "unresolved"},
		{"exact count equal", []float64{5, 5}, []float64{5, 5, 5}, "lower", "same"},
		{"exact count up by one", []float64{5, 5}, []float64{6, 6}, "lower", "worse"},
		{"exact ratio up", []float64{1.04}, []float64{1.05}, "higher", "better"},
	} {
		if got, detail := verdict(c.parent, c.change, c.better, 0.1); got != c.want {
			t.Errorf("%s: %s (%s), want %s", c.name, got, detail, c.want)
		}
	}
}

// TestCompareFiles runs -compare over -json files: one row per workload,
// exit code 1 when a pair is worse.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, passS float64) string {
		rec := &record{Workload: "cold-gen", Metrics: map[string]summary{}}
		for _, d := range endToEnd {
			v := 1.0
			if d.Name == "pass_s" {
				v = passS
			}
			rec.Metrics[d.Name] = summarize(d, []float64{v})
		}
		p := filepath.Join(dir, name)
		if err := writeJSON(p, rec); err != nil {
			t.Fatal(err)
		}
		return p
	}
	parents := []string{write("p1", 1.00), write("p2", 1.01), write("p3", 0.99)}
	same := []string{write("s1", 1.00), write("s2", 0.995), write("s3", 1.005)}
	slow := []string{write("w1", 1.5), write("w2", 1.52), write("w3", 1.49)}
	spec := &benchSpec{}
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), spec); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code, err := compare(spec, parents, same, &out); err != nil || code != 0 || strings.Contains(out.String(), "worse") {
		t.Errorf("same runs: code %d err %v\n%s", code, err, out.String())
	}
	out.Reset()
	code, err := compare(spec, parents, slow, &out)
	if err != nil || code != 1 || !strings.Contains(out.String(), "cold-gen pass_s worse") {
		t.Errorf("slower runs: code %d err %v\n%s", code, err, out.String())
	}
	if rows := strings.Count(out.String(), "cold-gen (3/3 runs)"); rows != 1 {
		t.Errorf("%d rows for cold-gen, want 1:\n%s", rows, out.String())
	}
}

// TestCommandLine drives run() as the binary does: flag errors exit 2
// without a result; a short untraced run writes its -json record and a
// CPU profile.
func TestCommandLine(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "cold-gen", "-trace", "2"},
		{"-workload", "cold-gen", "-trace", "1", "-cpuprofile", "x"},
		{"-workload", "cold-gen", "-trace-out", "x"},
		{"-compare", "a.json"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, printed %q; want exit 2 and nothing", args, code, out.String())
		}
	}

	dir := t.TempDir()
	rec, prof := filepath.Join(dir, "run.json"), filepath.Join(dir, "cpu.pprof")
	var out bytes.Buffer
	if code := run([]string{"--workload", "cold-gen", "--seed", "3", "--seconds", "0", "-json", rec, "-cpuprofile", prof}, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	if res := lastLine(t, out.String()); !res.Correct || res.Attempted != 2*48 {
		t.Errorf("result %+v, want 96 correct requests (warm-up and one timed pass)", res)
	}
	var got record
	if err := readJSON(rec, &got); err != nil {
		t.Fatal(err)
	}
	if got.Workload != "cold-gen" || got.Seed != 3 || got.NProc < 1 || got.GoVersion == "" ||
		got.Metrics["pass_s"].N != 1 || len(got.Metrics["setup_s"].Samples) < setupRuns {
		t.Errorf("record %+v", got)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Errorf("no CPU profile: %v", err)
	}
}
