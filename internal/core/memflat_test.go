package core_test

import (
	"fmt"
	"testing"

	"vliwvp/internal/conform"
	"vliwvp/internal/core"
	"vliwvp/internal/machine"
	"vliwvp/internal/progen"
)

// flatRun is what the flat-equivalence fixture compares between two runs.
type flatRun struct {
	cycles    int64
	memCounts int64  // DHits+DMisses+IMisses+StallIFetch
	events    uint64 // event-stream digest
}

// runTraced runs sim under mem with a digest sink attached.
func runTraced(t *testing.T, sim *core.Simulator, mem *machine.MemConfig) flatRun {
	t.Helper()
	sink := &hashSink{h: fnvOffset}
	sim.MemCfg = mem
	sim.Sink = sink
	if _, err := sim.Run("main"); err != nil {
		t.Fatal(err)
	}
	sim.Sink = nil
	return flatRun{sim.Cycles, sim.DHits + sim.DMisses + sim.IMisses + sim.StallIFetch, uint64(sink.h)}
}

// TestMemFlatGolden is the flat-equivalence fixture: binding the explicit
// flat config must be byte-identical to binding no config at all — same
// cycles, same event stream, no mem counters — on both a hand-written
// kernel and generated programs.
func TestMemFlatGolden(t *testing.T) {
	check := func(t *testing.T, name string, sim *core.Simulator) {
		nilRun := runTraced(t, sim, nil)
		flatRun := runTraced(t, sim, machine.MemFlat)
		if flatRun.cycles != nilRun.cycles {
			t.Errorf("%s: flat config took %d cycles, nil config %d", name, flatRun.cycles, nilRun.cycles)
		}
		if flatRun.memCounts != 0 {
			t.Errorf("%s: flat config charged %d mem hits, misses or fetch stalls", name, flatRun.memCounts)
		}
		if flatRun.events != nilRun.events {
			t.Errorf("%s: flat config's event stream differs from the nil config's", name)
		}
	}

	t.Run("kernel", func(t *testing.T) {
		sim, _ := buildSim(t, allocKernel, true, machine.W4)
		check(t, "kernel", sim)
	})

	for _, seed := range []int64{3, 11, 29} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			spec := progen.Generate(seed, progen.Options{})
			prog, prof, err := conform.Compile(progen.Render(spec))
			if err != nil {
				t.Fatal(err)
			}
			cell := conform.Cell{Name: "w4", D: machine.W4}
			cp, err := conform.PrepareCell(prog, prof, cell)
			if err != nil {
				t.Fatal(err)
			}
			check(t, cell.Name, cp.NewSim(cell))
		})
	}
}

// strideKernel marches a trained stride straight through the end of its
// array, so a confirmed prefetch stream issues fills past the last heap
// word — the timing-only contract says that must be harmless.
const strideKernel = `
var a[512]
func main() {
	for var i = 0; i < 512; i = i + 1 { a[i] = i * 3 }
	var s = 0
	for var i = 0; i < 512; i = i + 1 { s = s + a[i] }
	return s
}`

func TestPrefetchPastHeapEnd(t *testing.T) {
	sim, _ := buildSim(t, strideKernel, true, machine.W4)
	want, err := sim.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	for _, mem := range []*machine.MemConfig{machine.MemL1PF, machine.MemL2PF} {
		sim.MemCfg = mem
		v, err := sim.Run("main")
		if err != nil {
			t.Fatalf("%s: %v", mem.Name, err)
		}
		if v != want {
			t.Errorf("%s: result %d, flat model got %d", mem.Name, v, want)
		}
		if sim.PrefIssued == 0 {
			t.Errorf("%s: stride walk issued no prefetches", mem.Name)
		}
	}
}
