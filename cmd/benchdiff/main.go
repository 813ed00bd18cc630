// Command benchdiff compares two vliwvp perf records (written by
// `vpexp -bench-json`) and exits nonzero when the new record regresses
// past tolerance — the CI bench gate.
//
// Usage:
//
//	benchdiff -baseline bench/baseline.json -new BENCH_2.json [-tol 0.10] [-wall-tol 0]
//
// Simulated cycles and allocation counts are deterministic for a given Go
// release, so they gate at -tol (default 10%). Wall time depends on the
// host and is ignored unless -wall-tol is set > 0. Only regressions fail;
// improvements are reported and pass. An entry present in the baseline
// but missing from the new record fails (a silently dropped benchmark is
// a gate escape); new entries absent from the baseline are reported and
// pass.
//
// Absolute gates ride on top of the relative comparison, all evaluated
// within the new record alone (so they hold on any host):
// sim/decoded-grid and sim/cached-grid must report zero allocations per
// run — the decode-once engine's steady-state pooling contract, with and
// without the memory hierarchy — and sim/cached-grid must cost more cycles
// than the flat grid (a hierarchy that charges nothing is miswired).
package main

import (
	"flag"
	"fmt"
	"os"

	"vliwvp/internal/exp"
)

func load(path string) (*exp.BenchRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return exp.ReadBenchRecord(f)
}

// check compares one metric and returns a failure line, an info line, or
// neither. tol <= 0 disables the check.
func check(name, metric string, base, now int64, tol float64) (fail, info string) {
	if tol <= 0 || base <= 0 {
		return "", ""
	}
	delta := float64(now-base) / float64(base)
	switch {
	case delta > tol:
		return fmt.Sprintf("FAIL %-22s %-14s %12d -> %12d  (%+.1f%% > %.0f%% tolerance)",
			name, metric, base, now, delta*100, tol*100), ""
	case delta < -tol:
		return "", fmt.Sprintf("ok   %-22s %-14s %12d -> %12d  (improved %+.1f%%)",
			name, metric, base, now, delta*100)
	default:
		return "", ""
	}
}

func main() {
	basePath := flag.String("baseline", "bench/baseline.json", "committed baseline perf record")
	newPath := flag.String("new", "", "freshly measured perf record to gate")
	tol := flag.Float64("tol", 0.10, "relative tolerance for cycles and allocations")
	wallTol := flag.Float64("wall-tol", 0, "relative tolerance for wall time (0 = ignore wall time)")
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -new is required")
		os.Exit(2)
	}

	base, err := load(*basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: baseline: %v\n", err)
		os.Exit(2)
	}
	now, err := load(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: new record: %v\n", err)
		os.Exit(2)
	}
	if base.GoVersion != now.GoVersion {
		fmt.Printf("note: go versions differ (baseline %s, new %s); allocation counts may shift\n",
			base.GoVersion, now.GoVersion)
	}

	var fails []string
	for _, be := range base.Entries {
		ne := now.Entry(be.Name)
		if ne == nil {
			fails = append(fails, fmt.Sprintf("FAIL %-22s missing from new record", be.Name))
			continue
		}
		for _, c := range []struct {
			metric    string
			base, now int64
			tol       float64
		}{
			{"cycles", be.Cycles, ne.Cycles, *tol},
			{"allocs_per_op", be.AllocsPerOp, ne.AllocsPerOp, *tol},
			{"wall_ns", be.WallNS, ne.WallNS, *wallTol},
		} {
			fail, info := check(be.Name, c.metric, c.base, c.now, c.tol)
			if fail != "" {
				fails = append(fails, fail)
			}
			if info != "" {
				fmt.Println(info)
			}
		}
	}
	for _, ne := range now.Entries {
		if base.Entry(ne.Name) == nil {
			fmt.Printf("note: new entry %s (no baseline; not gated)\n", ne.Name)
		}
	}

	// Absolute gates on the simulation-grid rows of the new record.
	if dec := now.Entry("sim/decoded-grid"); dec != nil {
		if dec.AllocsPerOp != 0 {
			fails = append(fails, fmt.Sprintf(
				"FAIL %-22s %-14s %12d allocs (decoded engine must be allocation-free in steady state)",
				dec.Name, "allocs_per_op", dec.AllocsPerOp))
		}
		if cached := now.Entry("sim/cached-grid"); cached != nil {
			if cached.AllocsPerOp != 0 {
				fails = append(fails, fmt.Sprintf(
					"FAIL %-22s %-14s %12d allocs (memory hierarchy must not break steady-state pooling)",
					cached.Name, "allocs_per_op", cached.AllocsPerOp))
			}
			if cached.Cycles <= dec.Cycles {
				fails = append(fails, fmt.Sprintf(
					"FAIL %-22s %-14s %12d cycles not above flat grid %d (hierarchy charged nothing)",
					cached.Name, "cycles", cached.Cycles, dec.Cycles))
			}
		}
		if br := now.Entry("sim/branch-grid"); br != nil {
			if br.AllocsPerOp != 0 {
				fails = append(fails, fmt.Sprintf(
					"FAIL %-22s %-14s %12d allocs (branch predictor must not break steady-state pooling)",
					br.Name, "allocs_per_op", br.AllocsPerOp))
			}
			if br.Cycles <= dec.Cycles {
				fails = append(fails, fmt.Sprintf(
					"FAIL %-22s %-14s %12d cycles not above flat grid %d (control speculation charged nothing)",
					br.Name, "cycles", br.Cycles, dec.Cycles))
			}
		}
	}

	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Println(f)
		}
		fmt.Printf("benchdiff: %d regression(s) against %s\n", len(fails), *basePath)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d entries within tolerance of %s\n", len(base.Entries), *basePath)
}
