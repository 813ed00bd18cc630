package core_test

import (
	"testing"

	"vliwvp/internal/core"
	"vliwvp/internal/ddg"
	"vliwvp/internal/lang"
	"vliwvp/internal/machine"
	"vliwvp/internal/obs"
	"vliwvp/internal/sched"
	"vliwvp/internal/speculate"
)

// TestPlainWriteDrainHorizon pins the end-of-run drain for plain
// write-backs kept off the event wheel. Compiled without opt, the dead
// Div survives and, being the slowest op, lands after the root Ret has
// issued with nothing else in flight: only the drain horizon stretches an
// untraced run's Cycles to that landing, as the traced run's wheel drain
// does. Both runs take 12 cycles.
func TestPlainWriteDrainHorizon(t *testing.T) {
	const src = `func main() {
	var a = 7
	var b = a / 3
	return a
}`
	d := machine.W4
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	ps := &sched.ProgSched{Prog: prog, Funcs: map[string]*sched.FuncSched{}}
	for _, f := range prog.Funcs {
		fs := &sched.FuncSched{F: f, Blocks: make([]*sched.BlockSched, len(f.Blocks))}
		for i, b := range f.Blocks {
			fs.Blocks[i] = sched.ScheduleBlock(b, speculate.BuildGraph(b, d, ddg.Options{}), d)
		}
		ps.Funcs[f.Name] = fs
	}
	img, err := core.DecodeImage(prog, ps, d)
	if err != nil {
		t.Fatal(err)
	}

	traced := core.NewSimulatorFromImage(img, nil)
	sink := &collectSink{}
	traced.Sink = sink
	untraced := core.NewSimulatorFromImage(img, nil)
	for name, run := range map[string]func(string, ...uint64) (uint64, error){
		"traced": traced.Run, "untraced": untraced.Run,
	} {
		if v, err := run("main"); err != nil || v != 7 {
			t.Fatalf("%s run: got (%d, %v), want (7, nil)", name, v, err)
		}
	}

	// Vacuity: the last event is a register write landing after the last
	// instruction issued.
	lastIssue, n := int64(-1), len(sink.events)
	for _, e := range sink.events {
		if e.Kind == obs.KindInstrIssue {
			lastIssue = e.Cycle
		}
	}
	if n == 0 || sink.events[n-1].Kind != obs.KindRegWrite || sink.events[n-1].Cycle <= lastIssue {
		t.Fatalf("no write-back lands after the last issue (cycle %d); the program no longer exercises the drain", lastIssue)
	}
	if untraced.Cycles != 12 || traced.Cycles != 12 {
		t.Fatalf("Cycles: untraced %d, traced %d; want 12 for both", untraced.Cycles, traced.Cycles)
	}
	if last := sink.events[n-1].Cycle; traced.Cycles != last+1 {
		t.Fatalf("Cycles %d, last write-back lands at cycle %d", traced.Cycles, last)
	}
}
