package oracle

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"vliwvp/internal/lang"
	"vliwvp/internal/machine"
	"vliwvp/internal/profile"
	"vliwvp/internal/speculate"
	"vliwvp/internal/workload"
)

// mixedSrc speculates well but mispredicts often — the kind of program
// where a recovery bug in the simulator would surface.
const mixedSrc = `
var a[256]
var out[256]
func main() {
	for var i = 0; i < 256; i = i + 1 {
		if i % 8 < 7 { a[i] = 5 } else { a[i] = (i * 2654435761) % 1000 }
	}
	var s = 0
	for var i = 0; i < 256; i = i + 1 {
		var x = a[i]
		var y = x * 3 + 7
		out[i] = y
		s = s + y
	}
	print(s)
	return s
}`

func TestCheckSourceAgrees(t *testing.T) {
	for _, cfg := range []Config{
		DefaultConfig(machine.W4),
		{D: machine.W4, CCBCapacity: 2},
		{D: machine.W8, SerialRecovery: true, Ctrl: machine.ControlConfig{BranchPenalty: 1}},
		{D: machine.W4, SerialRecovery: true},
	} {
		div, err := CheckSource("mixed", mixedSrc, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if div != nil {
			t.Errorf("unexpected divergence: %v", div)
		}
	}
}

// TestDiffDetectsAndMinimizes drives the failure path with a doctored
// reference, since the simulator (correctly) agrees with the real one: the
// diff must flag the mismatch, and minimization must shrink the scheme map
// while preserving the divergence.
func TestDiffDetectsAndMinimizes(t *testing.T) {
	cfg := DefaultConfig(machine.W4)
	prog, err := lang.Compile(mixedSrc)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refRun(prog)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.Collect(prog, "main")
	if err != nil {
		t.Fatal(err)
	}
	res, err := speculate.Transform(prog, prof, cfg.Spec)
	if err != nil {
		t.Fatal(err)
	}
	schemes := map[int]profile.Scheme{}
	for _, site := range res.Sites {
		schemes[site.ID] = site.Scheme
	}

	kind, _, err := diff(ref, res.Prog, schemes, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "" {
		t.Fatalf("honest diff diverged: %s", kind)
	}

	doctored := &refResult{value: ref.value + 1, output: ref.output, mem: ref.mem}
	kind, detail, err := diff(doctored, res.Prog, schemes, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "value" {
		t.Fatalf("doctored value diff: kind %q (%s), want \"value\"", kind, detail)
	}

	div := &Divergence{
		Repro: Repro{Benchmark: "mixed", Machine: cfg.D.Name, CCBCapacity: effectiveCCB(cfg), Schemes: schemes},
		Kind:  kind,
	}
	minimize(div, doctored, res.Prog, nil, cfg)
	// A wrong return value reproduces under every scheme map, so greedy
	// pruning must strip the map to nothing, and the CCB search must find a
	// capacity below the default that still reproduces the same kind of
	// divergence (without wedging the machine).
	if len(div.Repro.Schemes) != 0 {
		t.Errorf("minimization left %d scheme entries: %v", len(div.Repro.Schemes), div.Repro.Schemes)
	}
	if div.Repro.CCBCapacity >= effectiveCCB(cfg) {
		t.Errorf("minimization reported CCB %d, want below the default %d", div.Repro.CCBCapacity, effectiveCCB(cfg))
	}

	doctoredOut := &refResult{value: ref.value, output: append([]string{"bogus"}, ref.output...), mem: ref.mem}
	if kind, _, _ = diff(doctoredOut, res.Prog, schemes, nil, cfg); kind != "output" {
		t.Errorf("doctored output diff: kind %q, want \"output\"", kind)
	}
	memCopy := append([]uint64(nil), ref.mem...)
	memCopy[len(memCopy)-1]++
	doctoredMem := &refResult{value: ref.value, output: ref.output, mem: memCopy}
	if kind, _, _ = diff(doctoredMem, res.Prog, schemes, nil, cfg); kind != "memory" {
		t.Errorf("doctored memory diff: kind %q, want \"memory\"", kind)
	}
}

// TestCheckGridBenchmarks sweeps real workloads across the standard grid in
// parallel; the simulator must agree everywhere, at any worker count.
func TestCheckGridBenchmarks(t *testing.T) {
	benches := workload.All()
	if testing.Short() {
		benches = benches[:2]
	}
	cells := StandardCells(benches, []*machine.Desc{machine.W4})
	for _, jobs := range []int{1, 8} {
		divs, err := CheckGrid(cells, jobs)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, d := range divs {
			if d != nil {
				t.Errorf("jobs=%d cell %s/%s: %v", jobs, cells[i].Bench.Name, cells[i].Label, d)
			}
		}
	}
}

// randomOracleProgram is the oracle's program generator: the same surface
// as core's pipeline property test (predictable and unpredictable loads,
// stores, branches, a helper call) with generator-chosen array mixes so
// scheme maps vary between stride- and FCM-favoring sites.
func randomOracleProgram(rng *rand.Rand) string {
	consts := []string{"3", "5", "7", "11", "13"}
	ops := []string{"+", "-", "*", "&", "|", "^"}
	expr := func(vars []string, depth int) string {
		v := vars[rng.Intn(len(vars))]
		for i := 0; i < 1+rng.Intn(depth+1); i++ {
			v = "(" + v + " " + ops[rng.Intn(len(ops))] + " " + consts[rng.Intn(len(consts))] + ")"
		}
		return v
	}
	vars := []string{"x", "y", "z"}
	loads := []string{
		"steady[i & 63]",      // constant contents: stride- and FCM-friendly
		"ramp[i & 63]",        // strided contents: stride predictable
		"cycle[i & 7]",        // short repeating pattern: FCM-friendly
		"noisy[(x ^ i) & 63]", // data-dependent index: unpredictable
	}
	var body string
	for i := 0; i < 2+rng.Intn(4); i++ {
		target := vars[rng.Intn(len(vars))]
		if rng.Intn(2) == 0 {
			body += fmt.Sprintf("\t\t%s = %s + %s\n", target, loads[rng.Intn(len(loads))], expr(vars, 1))
		} else {
			body += fmt.Sprintf("\t\t%s = %s\n", target, expr(vars, 2))
		}
	}
	body += fmt.Sprintf("\t\tout[i & 63] = %s\n", expr(vars, 1))
	body += fmt.Sprintf("\t\tif (%s) & 3 == 0 { z = z + helper(x & 15) } else { y = y ^ z }\n", expr(vars, 1))

	return fmt.Sprintf(`
var steady[64]
var ramp[64]
var cycle[8]
var noisy[64]
var out[64]
func helper(k) {
	var t = 0
	while k > 0 {
		t = t + k
		k = k - 1
	}
	return t
}
func main() {
	for var i = 0; i < 64; i = i + 1 {
		steady[i] = 42
		ramp[i] = i * 6
		noisy[i] = (i * 2654435761) %% 251
	}
	for var i = 0; i < 8; i = i + 1 { cycle[i] = (i * 37) %% 11 }
	var x = 1
	var y = 2
	var z = 3
	for var i = 0; i < 96; i = i + 1 {
%s	}
	var chk = x + y * 31 + z * 1009
	for var i = 0; i < 64; i = i + 1 { chk = chk ^ (out[i] + i) }
	if chk & 7 == 0 { print(chk) }
	return chk
}`, body)
}

// randomConfig draws the machine-side fuzz dimensions: width, speculation
// threshold, CCB capacity (down to a single entry), and recovery mode.
func randomConfig(rng *rand.Rand) Config {
	stock := machine.Stock()
	cfg := Config{D: stock[rng.Intn(len(stock))]}
	cfg.Spec = speculate.DefaultConfig(cfg.D)
	cfg.Spec.Threshold = []float64{0.50, 0.65, 0.80}[rng.Intn(3)]
	cfg.CCBCapacity = []int{0, 1, 2, 3, 4, 8, 64}[rng.Intn(7)]
	if rng.Intn(2) == 1 {
		cfg.SerialRecovery = true
		cfg.Ctrl.BranchPenalty = rng.Intn(3)
	}
	return cfg
}

func checkSeed(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	src := randomOracleProgram(rng)
	cfg := randomConfig(rng)
	div, err := CheckSource(fmt.Sprintf("fuzz-%d", seed), src, cfg)
	if err != nil {
		t.Fatalf("seed %d (%+v): %v\n%s", seed, cfg, err, src)
	}
	if div != nil {
		t.Errorf("seed %d: %v\n%s", seed, div, src)
	}
}

// TestOracleFuzzSweep is the property-based differential sweep: for random
// programs and random machine configurations the simulator must match the
// interpreter exactly. ORACLE_FUZZ_N overrides the seed budget (CI pins it
// for a fixed-cost corpus).
func TestOracleFuzzSweep(t *testing.T) {
	n := 20
	if testing.Short() {
		n = 4
	}
	if s := os.Getenv("ORACLE_FUZZ_N"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad ORACLE_FUZZ_N %q: %v", s, err)
		}
		n = v
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		checkSeed(t, seed)
	}
}

// FuzzOracleDifferential exposes the same property to `go test -fuzz`, with
// the sweep's first seeds as corpus.
func FuzzOracleDifferential(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSeed(t, seed)
	})
}
