package interp_test

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"vliwvp/internal/interp"
	"vliwvp/internal/ir"
	"vliwvp/internal/lang"
	"vliwvp/internal/opt"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := lang.Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

func TestHooksFireWithDepth(t *testing.T) {
	src := `
var g = 5
func leaf(x) { return x + g }
func main() {
	var s = 0
	for var i = 0; i < 3; i = i + 1 { s = s + leaf(i) }
	return s
}`
	prog := compile(t, src)
	m := interp.New(prog)
	depths := map[string]map[int]bool{}
	m.Hooks.OnBlock = func(f *ir.Func, b *ir.Block, depth int) {
		if depths[f.Name] == nil {
			depths[f.Name] = map[int]bool{}
		}
		depths[f.Name][depth] = true
	}
	loads := 0
	loadDepths := map[int]bool{}
	m.Hooks.OnLoad = func(f *ir.Func, op *ir.Op, addr int, value uint64, depth int) {
		loads++
		loadDepths[depth] = true
		if value != 5 {
			t.Errorf("loaded %d, want 5", value)
		}
	}
	ops := 0
	m.Hooks.OnOp = func(f *ir.Func, op *ir.Op) { ops++ }

	if _, err := m.RunMain(); err != nil {
		t.Fatal(err)
	}
	if !depths["main"][0] {
		t.Error("main must run at depth 0")
	}
	if !depths["leaf"][1] {
		t.Error("leaf must run at depth 1")
	}
	if loads != 3 || !loadDepths[1] {
		t.Errorf("loads = %d at depths %v, want 3 at depth 1", loads, loadDepths)
	}
	if int64(ops) != m.Steps {
		t.Errorf("OnOp fired %d times, Steps = %d", ops, m.Steps)
	}
}

func TestExecOpAllIntOpcodes(t *testing.T) {
	f := ir.NewFunc("t")
	a, b, d := f.NewReg(), f.NewReg(), f.NewReg()
	prog := ir.NewProgram()
	_ = prog.AddFunc(f)
	prog.Link()
	m := interp.New(prog)

	cases := []struct {
		code ir.Opcode
		av   int64
		bv   int64
		want int64
	}{
		{ir.Add, 7, 3, 10}, {ir.Sub, 7, 3, 4}, {ir.Mul, -7, 3, -21},
		{ir.Div, -7, 2, -3}, {ir.Rem, -7, 2, -1},
		{ir.And, 0b1100, 0b1010, 0b1000}, {ir.Or, 0b1100, 0b1010, 0b1110},
		{ir.Xor, 0b1100, 0b1010, 0b0110},
		{ir.Shl, 3, 4, 48}, {ir.Shr, -16, 2, -4},
		{ir.Neg, 9, 0, -9}, {ir.Not, 0, 0, -1},
		{ir.CmpEQ, 4, 4, 1}, {ir.CmpNE, 4, 4, 0},
		{ir.CmpLT, -1, 0, 1}, {ir.CmpLE, 0, 0, 1},
		{ir.CmpGT, 1, 2, 0}, {ir.CmpGE, 2, 2, 1},
	}
	for _, tc := range cases {
		op := f.NewOp(tc.code)
		op.Dest, op.A, op.B = d, a, b
		regs := make([]uint64, f.NumRegs)
		regs[a], regs[b] = uint64(tc.av), uint64(tc.bv)
		if err := m.ExecOp(f, op, regs); err != nil {
			t.Fatalf("%v: %v", tc.code, err)
		}
		if got := int64(regs[d]); got != tc.want {
			t.Errorf("%v(%d, %d) = %d, want %d", tc.code, tc.av, tc.bv, got, tc.want)
		}
	}
}

func TestExecOpAllFloatOpcodes(t *testing.T) {
	f := ir.NewFunc("t")
	a, b, d := f.NewReg(), f.NewReg(), f.NewReg()
	prog := ir.NewProgram()
	_ = prog.AddFunc(f)
	prog.Link()
	m := interp.New(prog)

	fcases := []struct {
		code ir.Opcode
		av   float64
		bv   float64
		want float64
	}{
		{ir.FAdd, 1.5, 2.25, 3.75}, {ir.FSub, 1.5, 2.25, -0.75},
		{ir.FMul, 1.5, 2.0, 3.0}, {ir.FDiv, 3.0, 2.0, 1.5},
		{ir.FNeg, 4.5, 0, -4.5},
	}
	for _, tc := range fcases {
		op := f.NewOp(tc.code)
		op.Dest, op.A, op.B = d, a, b
		regs := make([]uint64, f.NumRegs)
		regs[a], regs[b] = math.Float64bits(tc.av), math.Float64bits(tc.bv)
		if err := m.ExecOp(f, op, regs); err != nil {
			t.Fatalf("%v: %v", tc.code, err)
		}
		if got := math.Float64frombits(regs[d]); got != tc.want {
			t.Errorf("%v(%v, %v) = %v, want %v", tc.code, tc.av, tc.bv, got, tc.want)
		}
	}

	ccases := []struct {
		code ir.Opcode
		av   float64
		bv   float64
		want uint64
	}{
		{ir.FCmpEQ, 1, 1, 1}, {ir.FCmpNE, 1, 1, 0}, {ir.FCmpLT, -1, 0, 1},
		{ir.FCmpLE, 2, 2, 1}, {ir.FCmpGT, 2, 3, 0}, {ir.FCmpGE, 3, 3, 1},
	}
	for _, tc := range ccases {
		op := f.NewOp(tc.code)
		op.Dest, op.A, op.B = d, a, b
		regs := make([]uint64, f.NumRegs)
		regs[a], regs[b] = math.Float64bits(tc.av), math.Float64bits(tc.bv)
		if err := m.ExecOp(f, op, regs); err != nil {
			t.Fatalf("%v: %v", tc.code, err)
		}
		if regs[d] != tc.want {
			t.Errorf("%v(%v, %v) = %d, want %d", tc.code, tc.av, tc.bv, regs[d], tc.want)
		}
	}
}

func TestConversionsRoundTrip(t *testing.T) {
	check := func(v int32) bool {
		f := ir.NewFunc("c")
		a, d := f.NewReg(), f.NewReg()
		prog := ir.NewProgram()
		_ = prog.AddFunc(f)
		prog.Link()
		m := interp.New(prog)

		i2f := f.NewOp(ir.I2F)
		i2f.Dest, i2f.A = d, a
		regs := make([]uint64, f.NumRegs)
		regs[a] = uint64(int64(v))
		if err := m.ExecOp(f, i2f, regs); err != nil {
			return false
		}
		f2i := f.NewOp(ir.F2I)
		f2i.Dest, f2i.A = a, d
		if err := m.ExecOp(f, f2i, regs); err != nil {
			return false
		}
		return int64(regs[a]) == int64(v)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestLdPredRejectedInSequentialCode(t *testing.T) {
	f := ir.NewFunc("bad")
	d := f.NewReg()
	prog := ir.NewProgram()
	_ = prog.AddFunc(f)
	prog.Link()
	m := interp.New(prog)
	op := f.NewOp(ir.LdPred)
	op.Dest = d
	regs := make([]uint64, f.NumRegs)
	if err := m.ExecOp(f, op, regs); err == nil {
		t.Error("LdPred must not execute sequentially")
	}
}

func TestMemoryImageInitialization(t *testing.T) {
	src := `
var a = 7
var b[3]
var c float = 2.5
func main() { return a }`
	prog := compile(t, src)
	m := interp.New(prog)
	ga, gc := prog.Global("a"), prog.Global("c")
	if m.Mem[ga.Addr] != 7 {
		t.Errorf("a initialized to %d, want 7", m.Mem[ga.Addr])
	}
	if math.Float64frombits(m.Mem[gc.Addr]) != 2.5 {
		t.Error("float global c not initialized")
	}
	gb := prog.Global("b")
	for i := 0; i < gb.Size; i++ {
		if m.Mem[gb.Addr+i] != 0 {
			t.Errorf("array element b[%d] not zeroed", i)
		}
	}
}

func TestCheckLdBehavesAsLoadSequentially(t *testing.T) {
	// The interpreter treats CheckLd as a plain load so that transformed
	// programs with speculation stripped still validate.
	f := ir.NewFunc("t")
	a, d := f.NewReg(), f.NewReg()
	prog := ir.NewProgram()
	_ = prog.AddGlobal(&ir.Global{Name: "g", Size: 2, Init: []uint64{0, 99}})
	_ = prog.AddFunc(f)
	prog.Link()
	m := interp.New(prog)
	op := f.NewOp(ir.CheckLd)
	op.Dest, op.A, op.Imm = d, a, 1
	regs := make([]uint64, f.NumRegs)
	regs[a] = uint64(prog.Global("g").Addr)
	if err := m.ExecOp(f, op, regs); err != nil {
		t.Fatal(err)
	}
	if regs[d] != 99 {
		t.Errorf("checkld loaded %d, want 99", regs[d])
	}
}

// TestLeaResolution pins Lea addressing through the table New builds: ops
// with equal IDs in different functions resolve to their own globals as
// execution alternates between the functions, an op added after New
// resolves by name, and an unknown global is an error.
func TestLeaResolution(t *testing.T) {
	prog := ir.NewProgram()
	_ = prog.AddGlobal(&ir.Global{Name: "a", Size: 4})
	_ = prog.AddGlobal(&ir.Global{Name: "b", Size: 4})
	lea := func(f *ir.Func, sym string, imm int64) *ir.Op {
		op := f.NewOp(ir.Lea)
		op.Dest, op.Sym, op.Imm = 0, sym, imm
		return op
	}
	f, g := ir.NewFunc("f"), ir.NewFunc("g")
	f.NewReg()
	g.NewReg()
	fa, gb := lea(f, "a", 1), lea(g, "b", 2)
	f.Blocks[0].Ops = []*ir.Op{fa}
	g.Blocks[0].Ops = []*ir.Op{gb}
	_ = prog.AddFunc(f)
	_ = prog.AddFunc(g)
	prog.Link()
	m := interp.New(prog)
	late := lea(f, "b", 0)
	for i := 0; i < 2; i++ {
		for _, c := range []struct {
			f    *ir.Func
			op   *ir.Op
			want int
		}{
			{f, fa, prog.Global("a").Addr + 1},
			{g, gb, prog.Global("b").Addr + 2},
			{f, late, prog.Global("b").Addr},
		} {
			regs := make([]uint64, 1)
			if err := m.ExecOp(c.f, c.op, regs); err != nil {
				t.Fatal(err)
			}
			if int(regs[0]) != c.want {
				t.Errorf("%s %v = %d, want %d", c.f.Name, c.op, regs[0], c.want)
			}
		}
	}
	if err := m.ExecOp(f, lea(f, "nope", 0), make([]uint64, 1)); err == nil || !strings.Contains(err.Error(), "unknown global") {
		t.Errorf("lea of an unknown global: err = %v", err)
	}
}

func TestRunUnknownFunction(t *testing.T) {
	prog := compile(t, `func main() { return 1 }`)
	m := interp.New(prog)
	if _, err := m.Run("nope"); err == nil || !strings.Contains(err.Error(), "no function") {
		t.Errorf("err = %v", err)
	}
	if _, err := m.Run("main", 1, 2); err == nil || !strings.Contains(err.Error(), "takes 0 args") {
		t.Errorf("err = %v", err)
	}
}

func TestStepsCountsEveryOp(t *testing.T) {
	prog := compile(t, `func main() { var x = 1 var y = x + 2 return y }`)
	opt.OptimizeFunc(prog.Func("main")) // drop the unreachable implicit-return block
	m := interp.New(prog)
	if _, err := m.RunMain(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			total += len(b.Ops)
		}
	}
	if m.Steps != int64(total) {
		t.Errorf("Steps = %d, static ops = %d (straight-line program)", m.Steps, total)
	}
}
