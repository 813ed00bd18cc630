// Package interp executes IR programs with sequential semantics. It is the
// golden reference model: the optimizer, the speculation pass, and the
// dual-engine simulator are all validated against it. It also drives value
// and frequency profiling via its hooks.
package interp

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"vliwvp/internal/ir"
)

// ErrStepLimit reports that execution exceeded Machine.MaxSteps.
var ErrStepLimit = errors.New("interp: dynamic step limit exceeded")

// DebugStore, when set, observes every memory store (debugging aid).
var DebugStore func(addr int, value uint64)

// Hooks receive events during execution. Any field may be nil.
type Hooks struct {
	// OnBlock fires when control enters a basic block. depth is the call
	// depth (0 for the entry function), letting profilers attribute events
	// to block instances across calls.
	OnBlock func(f *ir.Func, b *ir.Block, depth int)
	// OnLoad fires after each Load/CheckLd with the loaded value.
	OnLoad func(f *ir.Func, op *ir.Op, addr int, value uint64, depth int)
	// OnOp fires after every executed operation.
	OnOp func(f *ir.Func, op *ir.Op)
}

// Machine interprets one program instance: a memory image plus output.
type Machine struct {
	Prog     *ir.Program
	Mem      []uint64
	Output   []string
	Steps    int64
	MaxSteps int64 // 0 means DefaultMaxSteps
	Hooks    Hooks

	// lea holds each function's Lea addresses by op ID, resolved once by
	// New (0: not resolved, look the global up by name); leaF/leaT cache
	// the table of the function that last executed a Lea.
	lea  map[*ir.Func][]int
	leaF *ir.Func
	leaT []int
}

// DefaultMaxSteps bounds runaway programs in tests and profiling runs.
const DefaultMaxSteps = 1 << 30

// New builds a machine with the program's linked memory image and
// resolves every Lea operand to its global's address.
func New(p *ir.Program) *Machine {
	m := &Machine{Prog: p, Mem: make([]uint64, p.MemWords), lea: make(map[*ir.Func][]int, len(p.Funcs))}
	for _, g := range p.Globals {
		copy(m.Mem[g.Addr:g.Addr+g.Size], g.Init)
	}
	for _, f := range p.Funcs {
		var tab []int
		for _, b := range f.Blocks {
			for _, op := range b.Ops {
				if op.Code != ir.Lea {
					continue
				}
				if g := p.Global(op.Sym); g != nil {
					if op.ID >= len(tab) {
						tab = append(tab, make([]int, op.ID+1-len(tab))...)
					}
					tab[op.ID] = g.Addr
				}
			}
		}
		if tab != nil {
			m.lea[f] = tab
		}
	}
	return m
}

// globalAddr returns the address of the global a Lea names: from the
// table New built, or by name for an op the table does not know.
func (m *Machine) globalAddr(f *ir.Func, op *ir.Op) (int, bool) {
	if f != m.leaF {
		m.leaF, m.leaT = f, m.lea[f]
	}
	if op.ID < len(m.leaT) {
		if a := m.leaT[op.ID]; a != 0 {
			return a, true
		}
	}
	g := m.Prog.Global(op.Sym)
	if g == nil {
		return 0, false
	}
	return g.Addr, true
}

// Reset restores the machine to its initial state — the program's linked
// memory image, empty output, zero step count — so one Machine can serve
// several independent runs (the dual-engine simulator resets its embedded
// machine between reused-Simulator runs).
func (m *Machine) Reset() {
	for i := range m.Mem {
		m.Mem[i] = 0
	}
	for _, g := range m.Prog.Globals {
		copy(m.Mem[g.Addr:g.Addr+g.Size], g.Init)
	}
	m.Output = nil
	m.Steps = 0
}

// Run executes the named function with integer arguments and returns its
// result register value.
func (m *Machine) Run(name string, args ...uint64) (uint64, error) {
	f := m.Prog.Func(name)
	if f == nil {
		return 0, fmt.Errorf("interp: no function %q", name)
	}
	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("interp: %q takes %d args, got %d", name, len(f.Params), len(args))
	}
	return m.call(f, args, 0)
}

const maxCallDepth = 1000

func (m *Machine) call(f *ir.Func, args []uint64, depth int) (uint64, error) {
	if depth > maxCallDepth {
		return 0, fmt.Errorf("interp: call depth exceeded in %q", f.Name)
	}
	maxSteps := m.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	regs := make([]uint64, f.NumRegs)
	copy(regs, args)

	bi := f.Entry
	for {
		b := f.Blocks[bi]
		if m.Hooks.OnBlock != nil {
			m.Hooks.OnBlock(f, b, depth)
		}
		next := -1
		for _, op := range b.Ops {
			m.Steps++
			if m.Steps > maxSteps {
				return 0, ErrStepLimit
			}
			switch op.Code {
			case ir.Br:
				if regs[op.A] != 0 {
					next = b.Succs[0]
				} else {
					next = b.Succs[1]
				}
			case ir.Jmp:
				next = b.Succs[0]
			case ir.Ret:
				var v uint64
				if op.A != ir.NoReg {
					v = regs[op.A]
				}
				if m.Hooks.OnOp != nil {
					m.Hooks.OnOp(f, op)
				}
				return v, nil
			case ir.Call:
				v, err := m.execCall(f, op, regs, depth)
				if err != nil {
					return 0, err
				}
				if op.Dest != ir.NoReg {
					regs[op.Dest] = v
				}
			default:
				if err := m.execOpAt(f, op, regs, depth); err != nil {
					return 0, fmt.Errorf("%s b%d %s: %w", f.Name, b.ID, op, err)
				}
			}
			if m.Hooks.OnOp != nil {
				m.Hooks.OnOp(f, op)
			}
		}
		if next == -1 {
			if len(b.Succs) != 1 {
				return 0, fmt.Errorf("interp: block b%d of %q fell through without successor", b.ID, f.Name)
			}
			next = b.Succs[0]
		}
		bi = next
	}
}

func (m *Machine) execCall(f *ir.Func, op *ir.Op, regs []uint64, depth int) (uint64, error) {
	switch op.Sym {
	case "print":
		v := int64(regs[op.Args[0]])
		m.Output = append(m.Output, strconv.FormatInt(v, 10))
		return 0, nil
	case "fprint":
		v := math.Float64frombits(regs[op.Args[0]])
		m.Output = append(m.Output, strconv.FormatFloat(v, 'g', -1, 64))
		return 0, nil
	}
	callee := m.Prog.Func(op.Sym)
	if callee == nil {
		return 0, fmt.Errorf("interp: call to unknown %q", op.Sym)
	}
	args := make([]uint64, len(op.Args))
	for i, a := range op.Args {
		args[i] = regs[a]
	}
	return m.call(callee, args, depth+1)
}

// ExecOp executes a single non-control operation against regs and memory.
// It is shared with the dual-engine simulator, which needs identical
// operation semantics on both engines.
func (m *Machine) ExecOp(f *ir.Func, op *ir.Op, regs []uint64) error {
	return m.execOpAt(f, op, regs, 0)
}

func (m *Machine) execOpAt(f *ir.Func, op *ir.Op, regs []uint64, depth int) error {
	ia := func() int64 { return int64(regs[op.A]) }
	ib := func() int64 { return int64(regs[op.B]) }
	fa := func() float64 { return math.Float64frombits(regs[op.A]) }
	fb := func() float64 { return math.Float64frombits(regs[op.B]) }
	setI := func(v int64) { regs[op.Dest] = uint64(v) }
	setF := func(v float64) { regs[op.Dest] = math.Float64bits(v) }
	setB := func(c bool) {
		if c {
			regs[op.Dest] = 1
		} else {
			regs[op.Dest] = 0
		}
	}

	switch op.Code {
	case ir.Nop:
	case ir.MovI:
		setI(op.Imm)
	case ir.Mov:
		regs[op.Dest] = regs[op.A]
	case ir.Add:
		setI(ia() + ib())
	case ir.Sub:
		setI(ia() - ib())
	case ir.Mul:
		setI(ia() * ib())
	case ir.Div:
		if ib() == 0 {
			return errors.New("integer divide by zero")
		}
		setI(ia() / ib())
	case ir.Rem:
		if ib() == 0 {
			return errors.New("integer remainder by zero")
		}
		setI(ia() % ib())
	case ir.And:
		setI(ia() & ib())
	case ir.Or:
		setI(ia() | ib())
	case ir.Xor:
		setI(ia() ^ ib())
	case ir.Shl:
		setI(ia() << (m.shiftAmount(op, regs) & 63))
	case ir.Shr:
		setI(ia() >> (m.shiftAmount(op, regs) & 63))
	case ir.Neg:
		setI(-ia())
	case ir.Not:
		setI(^ia())
	case ir.CmpEQ:
		setB(ia() == ib())
	case ir.CmpNE:
		setB(ia() != ib())
	case ir.CmpLT:
		setB(ia() < ib())
	case ir.CmpLE:
		setB(ia() <= ib())
	case ir.CmpGT:
		setB(ia() > ib())
	case ir.CmpGE:
		setB(ia() >= ib())
	case ir.FMovI:
		setF(op.FImm)
	case ir.FMov:
		regs[op.Dest] = regs[op.A]
	case ir.FAdd:
		setF(fa() + fb())
	case ir.FSub:
		setF(fa() - fb())
	case ir.FMul:
		setF(fa() * fb())
	case ir.FDiv:
		setF(fa() / fb())
	case ir.FNeg:
		setF(-fa())
	case ir.FCmpEQ:
		setB(fa() == fb())
	case ir.FCmpNE:
		setB(fa() != fb())
	case ir.FCmpLT:
		setB(fa() < fb())
	case ir.FCmpLE:
		setB(fa() <= fb())
	case ir.FCmpGT:
		setB(fa() > fb())
	case ir.FCmpGE:
		setB(fa() >= fb())
	case ir.I2F:
		setF(float64(ia()))
	case ir.F2I:
		setI(int64(fa()))
	case ir.Select:
		if regs[op.A] != 0 {
			regs[op.Dest] = regs[op.B]
		} else {
			regs[op.Dest] = regs[op.C]
		}
	case ir.Lea:
		addr, ok := m.globalAddr(f, op)
		if !ok {
			return fmt.Errorf("lea of unknown global %q", op.Sym)
		}
		setI(int64(addr) + op.Imm)
	case ir.Load, ir.CheckLd:
		addr := ia() + op.Imm
		if addr < 1 || addr >= int64(len(m.Mem)) {
			return fmt.Errorf("load address %d out of range [1,%d)", addr, len(m.Mem))
		}
		regs[op.Dest] = m.Mem[addr]
		if m.Hooks.OnLoad != nil {
			m.Hooks.OnLoad(f, op, int(addr), m.Mem[addr], depth)
		}
	case ir.Store:
		addr := ia() + op.Imm
		if addr < 1 || addr >= int64(len(m.Mem)) {
			return fmt.Errorf("store address %d out of range [1,%d)", addr, len(m.Mem))
		}
		m.Mem[addr] = regs[op.B]
		if DebugStore != nil {
			DebugStore(int(addr), regs[op.B])
		}
	case ir.LdPred:
		// LdPred has no sequential meaning; the speculate pass only adds it
		// to scheduled code, never to code the interpreter runs.
		return errors.New("interp: LdPred in sequential code")
	default:
		return fmt.Errorf("unhandled opcode %s", op.Code)
	}
	return nil
}

func (m *Machine) shiftAmount(op *ir.Op, regs []uint64) int64 {
	if op.B == ir.NoReg {
		return op.Imm
	}
	return int64(regs[op.B])
}

// RunMain is a convenience wrapper for the common no-argument entry point.
func (m *Machine) RunMain() (uint64, error) { return m.Run("main") }
