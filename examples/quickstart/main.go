// Command quickstart walks the paper's worked example (Figures 2, 3, and
// 7): the 11-operation dependence graph with two latency-3 loads, scheduled
// without and with value prediction, then played on the dual-engine timing
// model under every combination of prediction outcomes, with the
// cycle-by-cycle Compensation Code Engine narrative.
package main

import (
	"fmt"
	"log"

	"vliwvp/internal/core"
	"vliwvp/internal/ddg"
	"vliwvp/internal/machine"
	"vliwvp/internal/obs"
	"vliwvp/internal/profile"
	"vliwvp/internal/sched"
	"vliwvp/internal/speculate"
)

func main() {
	d := machine.W4
	prog, f, err := core.PaperExample()
	if err != nil {
		log.Fatal(err)
	}
	l4, l7 := core.PaperExampleLoadIDs(f)

	fmt.Println("=== Figure 2: the dependence graph, scheduled without prediction ===")
	orig := f.Blocks[0]
	og := ddg.Build(orig, d.Latency, ddg.Options{})
	os := sched.ScheduleBlock(orig, og, d)
	printSchedule(os)
	fmt.Printf("schedule length: %d cycles (critical path %d)\n\n", os.Length(), og.CriticalLength)

	// Both loads profiled highly predictable, exactly as the example assumes.
	prof := &profile.Profile{
		Loads: map[profile.LoadKey]*profile.LoadProfile{
			{Func: "example", OpID: l4}: {Count: 1000, StrideRate: 0.9},
			{Func: "example", OpID: l7}: {Count: 1000, StrideRate: 0.9},
		},
		BlockFreq: map[profile.BlockKey]int64{{Func: "example", Block: 0}: 1000},
	}
	cfg := speculate.DefaultConfig(d)
	cfg.CriticalOnly = false
	res, err := speculate.Transform(prog, prof, cfg)
	if err != nil {
		log.Fatal(err)
	}

	spec := res.Prog.Func("example").Blocks[0]
	sg := speculate.BuildGraph(spec, d, ddg.Options{})
	ss := sched.ScheduleBlock(spec, sg, d)
	an, err := core.Analyze(spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Figure 3(a): the schedule with both loads predicted ===")
	printSchedule(ss)
	fmt.Println()

	cases := []struct {
		mask uint32
		name string
	}{
		{an.FullMask(), "Figure 3(b): both predictions correct"},
		{0b01, "Figure 3(c): second load mispredicted"},
		{0b10, "Figure 3(d): first load mispredicted"},
		{0b00, "Figure 3(e): both loads mispredicted"},
	}
	for _, c := range cases {
		fmt.Printf("=== %s ===\n", c.name)
		tm := core.NewTiming(d)
		tm.Sink = obs.TextFunc(func(cycle int64, line string) {
			fmt.Printf("  cycle %2d: %s\n", cycle, line)
		})
		r, err := tm.SimulateBlock(ss, an, c.mask)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  -> effective length %d cycles (original %d), %d compensation ops executed, %d flushed\n\n",
			r.Length, os.Length(), r.CCEExecuted, r.CCEFlushed)
	}
}

func printSchedule(s *sched.BlockSched) {
	for c, in := range s.Instrs {
		for _, op := range in.Ops {
			fmt.Printf("  cycle %2d: %v\n", c, op)
		}
		if in.WaitBits != 0 {
			fmt.Printf("  cycle %2d: [instruction waits on Synchronization bits %#x]\n", c, in.WaitBits)
		}
	}
}
