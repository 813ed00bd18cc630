// Command vpbench is the repository's end-to-end benchmark. One invocation
// runs one workload for a fixed time and prints every metric with its unit,
// median, quartiles and sample count, then one JSON line:
//
//	vpbench -workload cold-spec [-seed N] [-seconds S] [-json run.json] [-cpuprofile cpu.pprof]
//	vpbench -workload cold-spec -trace 1 [-trace-out trace.json]
//	vpbench -compare <parent run.json...> -- <change run.json...>
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) calls each layer separately inside a span and reports the
// per-layer metrics. Every simulated result is checked against the
// sequential interpreter; any failure makes the exit code 1. README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// setupRuns is how many times an untraced run sets up; setup_s is their
// median.
const setupRuns = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are one run's settings.
type options struct {
	seed       int64
	seconds    float64
	trace      bool
	traceOut   string
	jsonOut    string
	cpuprofile string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-spec, cold-gen, warm-flat or warm-full")
	seed := fs.Int64("seed", 1, "input seed; it orders the kernel requests")
	seconds := fs.Float64("seconds", 15, "how long to measure, in seconds; at least one pass runs")
	trace := fs.Int("trace", 0, "0: the timed run and its end-to-end metrics; 1: the traced run and its per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the spans to this file as Chrome trace JSON")
	jsonOut := fs.String("json", "", "write every metric with its per-pass samples to this file")
	cpuprofile := fs.String("cpuprofile", "", "with -trace 0: write a CPU profile of the timed passes to this file")
	cmp := fs.Bool("compare", false, "compare -json files of untraced runs: -compare <parent runs...> -- <change runs...>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		return runCompare(fs.Args(), stdout, stderr)
	}
	def, err := workloadByName(*name)
	if err == nil && (*trace < 0 || *trace > 1) {
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err == nil && *trace == 1 && *cpuprofile != "" {
		err = fmt.Errorf("-cpuprofile profiles untraced runs only")
	}
	if err == nil && *trace == 0 && *traceOut != "" {
		err = fmt.Errorf("-trace-out needs -trace 1")
	}
	if err == nil && *seconds < 0 {
		err = fmt.Errorf("-seconds must not be negative")
	}
	if err != nil {
		fmt.Fprintf(stderr, "vpbench: %v\n", err)
		return 2
	}
	b, err := newBench(def, *seed, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "vpbench: %v\n", err)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1,
		traceOut: *traceOut, jsonOut: *jsonOut, cpuprofile: *cpuprofile}
	rec, err := measure(b, o)
	if err == nil {
		var code int
		if code, err = report(rec, o, stdout); err == nil {
			return code
		}
	}
	fmt.Fprintf(stderr, "vpbench: %v\n", err)
	return 1
}

// measure makes one run of b: the traced run, or the timed set-ups
// followed by the timed passes.
func measure(b *bench, o options) (*record, error) {
	if o.trace {
		t := newTracer()
		samples, err := b.traceRun(o.seconds, t)
		if err != nil {
			return nil, err
		}
		if o.traceOut != "" {
			if err := t.writeChrome(o.traceOut); err != nil {
				return nil, err
			}
		}
		return newRecord(b, o, samples), nil
	}
	samples, err := b.timedSetups(setupRuns)
	if err != nil {
		return nil, err
	}
	if err := b.timedPasses(samples, o.seconds, o.cpuprofile); err != nil {
		return nil, err
	}
	return newRecord(b, o, samples), nil
}

func newRecord(b *bench, o options, samples map[string][]float64) *record {
	rec := &record{
		Workload:  b.def.name,
		Seed:      o.seed,
		Trace:     o.trace,
		Seconds:   o.seconds,
		GoVersion: runtime.Version(),
		NProc:     runtime.NumCPU(),
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]summary{},
	}
	for _, d := range rec.shown() {
		rec.Metrics[d.Name] = summarize(d, samples[d.Name])
	}
	return rec
}

// report prints the metric table and the closing JSON line, writes the
// -json file, and returns the exit code: 1 when any operation failed.
func report(rec *record, o options, stdout io.Writer) (int, error) {
	rec.printTable(stdout)
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, rec); err != nil {
			return 1, err
		}
	}
	line, err := json.Marshal(rec.resultLine())
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if rec.Failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// runCompare splits its arguments at "--" into parent and change run files
// and compares them under the bounds in BENCHMARK.json, which it reads from
// the working directory.
func runCompare(args []string, stdout, stderr io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
			break
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(stderr, "vpbench: usage: vpbench -compare <parent runs...> -- <change runs...>")
		return 2
	}
	spec := &benchSpec{}
	if err := readJSON("BENCHMARK.json", spec); err != nil {
		fmt.Fprintf(stderr, "vpbench: %v\n", err)
		return 2
	}
	code, err := compare(spec, args[:split], args[split+1:], stdout)
	if err != nil {
		fmt.Fprintf(stderr, "vpbench: %v\n", err)
	}
	return code
}
