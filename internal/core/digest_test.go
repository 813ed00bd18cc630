package core_test

// The timing digest: the decoded engine's observable behaviour over the
// CI corpora, frozen per (seed, cell) under testdata/digest/. Each cell
// of each generated program records four parts:
//
//   - cycles:   Cycles, in plain text;
//   - counters: a hash of every exported counter and the Metrics() snapshot;
//   - events:   a hash of the full typed event stream, field by field;
//   - state:    a hash of the value or error, FinalRegs, Memory and Output.
//
// The fixtures were generated while the engine still agreed byte-for-byte
// with the pre-decode stepper it replaced, on the same seeds, so a
// mismatch is timing or accounting drift on the frozen corpus; a failure
// names the seed, the cell and the part that moved. Every cell also runs
// untraced and must match its traced run. The sequential interpreter
// stays the architectural reference (internal/conform).
//
// Regenerate the fixtures deliberately, only for an intended change of
// timing or accounting, with:
//
//	go test ./internal/core -run 'TestEngineDiff|TestMemEngineDiff' -update-digest
//
// -short checks a seed prefix of each corpus. CI runs the full corpora
// under the race detector, which also exercises concurrent simulators
// sharing one immutable image.

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"vliwvp/internal/conform"
	"vliwvp/internal/core"
	"vliwvp/internal/obs"
	"vliwvp/internal/pipeline"
	"vliwvp/internal/progen"
)

var updateDigest = flag.Bool("update-digest", false,
	"rewrite the timing-digest fixtures (testdata/digest) from the current engine")

// digestCorpus is one frozen corpus: a lattice crossed with seeds 1..seeds.
type digestCorpus struct {
	file    string // fixture under testdata/digest
	lattice func() []conform.Cell
	seeds   int // corpus size
	short   int // seed prefix checked under -short
}

var (
	digestDefault = digestCorpus{"default.txt", conform.DefaultLattice, 200, 40}
	digestPred    = digestCorpus{"pred.txt", conform.PredLattice, 24, 8}
	digestBranch  = digestCorpus{"branch.txt", conform.BranchLattice, 24, 8}
	digestMem     = digestCorpus{"mem.txt", conform.MemLattice, 200, 10}
)

// digestParts names the fields of a fixture line after the cell name.
var digestParts = []string{"cycles", "counters", "events", "state"}

// TestEngineDiff pins the engine to its digest over the default lattice.
func TestEngineDiff(t *testing.T) { checkDigest(t, digestDefault) }

// TestEngineDiffPredictors pins the predictor lattice: every zoo scheme,
// gated and ungated, including the suppressed-issue events and the
// Suppressed/SuppressedWrong counters.
func TestEngineDiffPredictors(t *testing.T) { checkDigest(t, digestPred) }

// TestEngineDiffBranches pins the branch lattice: every stock direction
// predictor, the flush/redirect latency variants and the cache-backed
// cells that keep checks in flight across mispredicted branches.
func TestEngineDiffBranches(t *testing.T) { checkDigest(t, digestBranch) }

// TestMemEngineDiff pins the memory lattice: every stock hierarchy,
// including the mem.hit/mem.miss/mem.prefetch events and counters.
func TestMemEngineDiff(t *testing.T) { checkDigest(t, digestMem) }

// checkDigest runs the corpus one parallel subtest per seed and compares
// every cell with the fixture, or rewrites the fixture under
// -update-digest once every seed has run.
func checkDigest(t *testing.T, c digestCorpus) {
	n := c.seeds
	if testing.Short() {
		if *updateDigest {
			t.Fatal("-update-digest needs the full corpus; drop -short")
		}
		n = c.short
	}
	var want map[int64][]string
	got := make([][]string, n)
	if *updateDigest {
		t.Cleanup(func() {
			if !t.Failed() {
				writeDigest(t, c, got)
			}
		})
	} else {
		want = loadDigest(t, c)
	}
	lattice := c.lattice()
	for i := range got {
		seed := int64(1 + i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			lines, err := digestSeed(seed, lattice, nil)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			got[seed-1] = lines
			if want != nil {
				if msg := diffDigest(lines, want[seed]); msg != "" {
					t.Fatalf("seed %d: %s", seed, msg)
				}
			}
		})
	}
}

// TestEngineDiffCatchesInjectedFaults proves the digest has teeth: each
// injected engine fault must move some cell's digest within the first
// seeds of the corpus whose lattice exercises it. The branch-flush
// elision changes no architectural state (a flushed-correct site
// re-executes to identical values), so only timing and accounting show
// it.
func TestEngineDiffCatchesInjectedFaults(t *testing.T) {
	if *updateDigest {
		t.Skip("fixtures are being rewritten")
	}
	for _, f := range []struct {
		name   string
		corpus digestCorpus
		tamper func(*core.Simulator)
	}{
		{"cce-writeback-xor", digestDefault, func(s *core.Simulator) { s.FaultCCEWritebackXor = 1 << 6 }},
		{"confidence-misgate", digestPred, func(s *core.Simulator) { s.FaultConfidenceMisgate = true }},
		{"branch-flush-elide", digestBranch, func(s *core.Simulator) { s.FaultBranchFlushElide = true }},
	} {
		t.Run(f.name, func(t *testing.T) {
			want := loadDigest(t, f.corpus)
			lattice := f.corpus.lattice()
			const seeds = 4
			for seed := int64(1); seed <= seeds; seed++ {
				lines, err := digestSeed(seed, lattice, f.tamper)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if msg := diffDigest(lines, want[seed]); msg != "" {
					t.Logf("caught at seed %d: %s", seed, msg)
					return
				}
			}
			t.Fatalf("%s moved no digest across seeds 1-%d", f.name, seeds)
		})
	}
}

// digestSeed compiles one generated program and returns one fixture line
// per lattice cell: "<cell> <cycles> <counters> <events> <state>", or
// "<cell> invalid" when the cell's transform produced invalid IR. tamper,
// when set, is applied to the traced simulator (and the untraced
// comparison is skipped: it exists for the fault-injection test).
func digestSeed(seed int64, lattice []conform.Cell, tamper func(*core.Simulator)) ([]string, error) {
	prog, prof, err := conform.Compile(progen.Render(progen.Generate(seed, progen.Options{})))
	if err != nil {
		return nil, fmt.Errorf("front end: %v", err)
	}
	lines := make([]string, 0, len(lattice))
	for _, cell := range lattice {
		cp, err := conform.PrepareCell(prog, prof, cell)
		if err != nil {
			if pipeline.IsValidation(err) {
				lines = append(lines, cell.Name+" invalid")
				continue
			}
			return nil, fmt.Errorf("%s: prepare: %v", cell.Name, err)
		}
		sim := cp.NewSim(cell)
		if tamper != nil {
			tamper(sim)
		}
		events := &hashSink{h: fnvOffset}
		sim.Sink = events
		v, runErr := sim.Run("main")
		if tamper == nil {
			if msg := diffUntraced(cp, cell, v, runErr, sim); msg != "" {
				return nil, fmt.Errorf("%s", msg)
			}
		}
		lines = append(lines, fmt.Sprintf("%s %d %016x %016x %016x", cell.Name, sim.Cycles,
			counterDigest(sim), uint64(events.h), stateDigest(v, runErr, sim)))
	}
	return lines, nil
}

// diffDigest compares one seed's cell lines with the fixture's and names
// the first cell and part that moved, or returns "".
func diffDigest(got, want []string) string {
	if len(want) == 0 {
		return "seed missing from the fixture (regenerate with -update-digest)"
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d cells, fixture has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		g, w := strings.Fields(got[i]), strings.Fields(want[i])
		if g[0] != w[0] {
			return fmt.Sprintf("cell %d is %s, fixture has %s", i, g[0], w[0])
		}
		if len(g) != len(w) {
			return fmt.Sprintf("cell %s: %q, fixture %q", g[0], got[i], want[i])
		}
		for k := 1; k < len(g); k++ {
			if g[k] != w[k] {
				return fmt.Sprintf("cell %s: %s moved: %s, fixture %s", g[0], digestParts[k-1], g[k], w[k])
			}
		}
	}
	return ""
}

// loadDigest reads a corpus fixture: "<seed> <cell line>" per line, '#'
// comments skipped, cells of one seed in lattice order.
func loadDigest(t *testing.T, c digestCorpus) map[int64][]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "digest", c.file))
	if err != nil {
		t.Fatalf("%v (generate with -update-digest)", err)
	}
	defer f.Close()
	m := map[int64][]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		seedText, cellLine, ok := strings.Cut(line, " ")
		seed, err := strconv.ParseInt(seedText, 10, 64)
		if !ok || err != nil {
			t.Fatalf("%s: malformed line %q", c.file, line)
		}
		m[seed] = append(m[seed], cellLine)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return m
}

// writeDigest rewrites a corpus fixture from one run's lines.
func writeDigest(t *testing.T, c digestCorpus, got [][]string) {
	var b strings.Builder
	fmt.Fprintf(&b, "# seed cell %s (go test ./internal/core -update-digest)\n", strings.Join(digestParts, " "))
	for i, lines := range got {
		for _, l := range lines {
			fmt.Fprintf(&b, "%d %s\n", i+1, l)
		}
	}
	path := filepath.Join("testdata", "digest", c.file)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s (%d seeds)", path, len(got))
}

// fnv is a 64-bit FNV-1a hash fed whole words as little-endian bytes, so
// a digest is the same on every platform and Go release.
type fnv uint64

const fnvOffset fnv = 14695981039346656037

func (h *fnv) word(v uint64) {
	for i := 0; i < 8; i++ {
		*h ^= fnv(byte(v))
		*h *= 1099511628211
		v >>= 8
	}
}

func (h *fnv) str(s string) {
	h.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		*h ^= fnv(s[i])
		*h *= 1099511628211
	}
}

func (h *fnv) flag(b bool) {
	if b {
		h.word(1)
	} else {
		h.word(0)
	}
}

// hashSink folds every field of every event into one hash.
type hashSink struct{ h fnv }

func (s *hashSink) Event(e *obs.Event) {
	h := &s.h
	h.word(uint64(e.Cycle))
	h.word(uint64(e.Engine))
	h.word(uint64(e.Kind))
	if e.Op == nil {
		h.word(^uint64(0))
	} else {
		h.word(uint64(e.Op.ID))
		h.word(uint64(e.Op.Code))
		h.word(uint64(e.Op.Dest))
	}
	h.word(uint64(e.Bit))
	h.word(uint64(e.Done))
	h.flag(e.Correct)
	h.flag(e.Gated)
	h.flag(e.Flushed)
	h.word(e.Wait)
	h.word(e.Busy)
	h.word(uint64(len(e.Operands)))
	for _, o := range e.Operands {
		h.word(uint64(o.Site))
		h.word(uint64(o.State))
	}
	h.str(e.Func)
	h.word(uint64(e.Block))
	h.word(uint64(e.Instr))
	h.word(uint64(e.Site))
	h.word(uint64(e.Predicted))
	h.word(uint64(e.Actual))
	h.word(uint64(e.Reg))
	h.word(uint64(e.Value))
	h.word(uint64(e.Seq))
	h.word(uint64(e.LastSeq))
	h.word(uint64(e.Addr))
	h.word(uint64(e.Lat))
	h.word(uint64(e.Level))
}

// counterDigest hashes every exported counter plus the Metrics()
// snapshot (counters and histograms in name order).
func counterDigest(sim *core.Simulator) uint64 {
	h := fnvOffset
	for _, v := range []int64{
		sim.Cycles, sim.Instrs, sim.Ops,
		sim.StallSync, sim.StallScore, sim.StallCCB, sim.StallBar,
		sim.CCEExecuted, sim.CCEFlushed, sim.Mispredicts, sim.Predictions,
		sim.Suppressed, sim.SuppressedWrong, sim.StallRecovery,
		sim.BranchPredicts, sim.BranchMispredicts, sim.BranchFlushed, sim.BranchSquashed, sim.StallRedirect,
		sim.DHits, sim.DMisses, sim.IMisses, sim.StallIFetch, sim.PrefIssued, sim.PrefUseful,
		int64(sim.MaxCCBOccupancy),
	} {
		h.word(uint64(v))
	}
	snap := sim.Metrics()
	for _, name := range sortedKeys(snap.Counters) {
		h.str(name)
		h.word(uint64(snap.Counters[name]))
	}
	for _, name := range sortedKeys(snap.Histograms) {
		hist := snap.Histograms[name]
		h.str(name)
		for _, xs := range [][]int64{hist.Bounds, hist.Counts} {
			h.word(uint64(len(xs)))
			for _, x := range xs {
				h.word(uint64(x))
			}
		}
	}
	return uint64(h)
}

// stateDigest hashes a run's architectural outcome: the value or error,
// the root frame's final registers, memory and output.
func stateDigest(v uint64, err error, sim *core.Simulator) uint64 {
	h := fnvOffset
	h.flag(err != nil)
	if err != nil {
		h.str(err.Error())
	} else {
		h.word(v)
	}
	for _, xs := range [][]uint64{sim.FinalRegs(), sim.Memory()} {
		h.word(uint64(len(xs)))
		for _, x := range xs {
			h.word(x)
		}
	}
	h.word(uint64(len(sim.Output)))
	for _, s := range sim.Output {
		h.str(s)
	}
	return uint64(h)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// diffUntraced reruns the cell on a fresh simulator with no sink — the
// path that keeps plain write-backs off the event wheel and skips idle
// wheel and CCE steps — and describes the first difference from the
// traced run (tv, terr, tsim), or "".
func diffUntraced(cp *conform.CellPipeline, cell conform.Cell, tv uint64, terr error, tsim *core.Simulator) string {
	usim := cp.NewSim(cell)
	uv, uerr := usim.Run("main")
	if (uerr == nil) != (terr == nil) || (uerr != nil && uerr.Error() != terr.Error()) {
		return fmt.Sprintf("%s: untraced err=%v, traced err=%v", cell.Name, uerr, terr)
	}
	if uv != tv {
		return fmt.Sprintf("%s: untraced result %d != traced %d", cell.Name, uv, tv)
	}
	if usim.Cycles != tsim.Cycles {
		return fmt.Sprintf("%s: untraced Cycles %d != traced %d", cell.Name, usim.Cycles, tsim.Cycles)
	}
	if um, tm := usim.Metrics(), tsim.Metrics(); !reflect.DeepEqual(um, tm) {
		return fmt.Sprintf("%s: untraced metrics %v != traced %v", cell.Name, um, tm)
	}
	if stateDigest(uv, uerr, usim) != stateDigest(tv, terr, tsim) {
		return fmt.Sprintf("%s: untraced final registers, memory or output differ from the traced run", cell.Name)
	}
	return ""
}

// TestEngineDiffImageShared binds many simulators to one image
// concurrently — the immutability contract DecodeImage documents. Under
// -race this is the suite's data-race probe for shared images.
func TestEngineDiffImageShared(t *testing.T) {
	spec := progen.Generate(7, progen.Options{})
	prog, prof, err := conform.Compile(progen.Render(spec))
	if err != nil {
		t.Fatal(err)
	}
	cell := conform.DefaultLattice()[1] // w4-dual
	cp, err := conform.PrepareCell(prog, prof, cell)
	if err != nil {
		t.Fatal(err)
	}
	want, werr := cp.NewSim(cell).Run("main")
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				sim := cp.NewSim(cell)
				v, err := sim.Run("main")
				if (err == nil) != (werr == nil) || (err == nil && v != want) {
					errs[w] = fmt.Sprintf("worker %d rep %d: got (%d, %v), want (%d, %v)",
						w, rep, v, err, want, werr)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Error(e)
		}
	}
}
