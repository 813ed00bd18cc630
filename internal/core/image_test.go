package core

import (
	"errors"
	"strings"
	"testing"

	"vliwvp/internal/ir"
	"vliwvp/internal/machine"
)

// TestValidateInstrScoreboard holds Image.Validate to the per-instruction
// decode contract: a scoreboard list, Synchronization-bit summary, or
// barrier flag that disagrees with the instruction's ops is refused.
func TestValidateInstrScoreboard(t *testing.T) {
	img, _ := decodeKernel(t, machine.W4)
	if err := img.Validate(); err != nil {
		t.Fatalf("decoded image fails validation: %v", err)
	}
	cases := []struct {
		name    string
		applies func(*imgInstr) bool
		tamper  func(*imgInstr)
	}{
		{"swapped entries",
			func(in *imgInstr) bool { return len(in.score) >= 2 && in.score[0] != in.score[1] },
			func(in *imgInstr) { in.score[0], in.score[1] = in.score[1], in.score[0] }},
		{"truncated list",
			func(in *imgInstr) bool { return len(in.score) > 0 },
			func(in *imgInstr) { in.score = in.score[:len(in.score)-1] }},
		{"register out of range",
			func(in *imgInstr) bool { return len(in.score) > 0 },
			func(in *imgInstr) { in.score[0].reg = 1 << 20 }},
		{"op out of range",
			func(in *imgInstr) bool { return len(in.score) > 0 },
			func(in *imgInstr) { in.score[0].op = -1 }},
		{"wrong owning op",
			func(in *imgInstr) bool { return len(in.score) > 0 && len(in.ops) > 1 },
			func(in *imgInstr) {
				for _, idx := range in.ops {
					if idx != in.score[0].op {
						in.score[0].op = idx
						return
					}
				}
			}},
		{"missing Synchronization bits",
			func(in *imgInstr) bool { return in.bits != 0 },
			func(in *imgInstr) { in.bits = 0 }},
		{"extra Synchronization bit",
			func(in *imgInstr) bool { return true },
			func(in *imgInstr) { in.bits ^= 1 << 63 }},
		{"barrier flag",
			func(in *imgInstr) bool { return in.barrier },
			func(in *imgInstr) { in.barrier = false }},
		{"spurious barrier flag",
			func(in *imgInstr) bool { return !in.barrier },
			func(in *imgInstr) { in.barrier = true }},
	}
	for _, c := range cases {
		in := findInstr(img, c.applies)
		if in == nil {
			t.Fatalf("%s: the kernel has no instruction to tamper with", c.name)
		}
		orig, origScore := *in, append([]scoreReg(nil), in.score...)
		c.tamper(in)
		if err := img.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the tampered image", c.name)
		}
		*in = orig
		copy(in.score, origScore)
		if err := img.Validate(); err != nil {
			t.Fatalf("%s: restored image fails validation: %v", c.name, err)
		}
	}
}

// findInstr returns the first decoded instruction satisfying ok, or nil.
func findInstr(img *Image, ok func(*imgInstr) bool) *imgInstr {
	for _, f := range img.Prog.Funcs {
		fn := img.funcs[f.Name]
		for bi := range fn.blocks {
			for ii := range fn.blocks[bi].instrs {
				if in := &fn.blocks[bi].instrs[ii]; ok(in) {
					return in
				}
			}
		}
	}
	return nil
}

// TestDecodeRefusesImpureSpeculativeOp: the engine's plain write-back
// assumes execValue stored a speculative op's Dest at issue, which holds
// only for pure ops, so the decoder refuses a speculative store.
func TestDecodeRefusesImpureSpeculativeOp(t *testing.T) {
	img, _ := decodeKernel(t, machine.W4)
	for _, f := range img.Prog.Funcs {
		for _, b := range f.Blocks {
			for _, op := range b.Ops {
				if op.Code != ir.Store {
					continue
				}
				spec, bit := op.Speculative, op.SyncBit
				op.Speculative, op.SyncBit = true, 0
				_, err := DecodeImage(img.Prog, img.Sched, img.D)
				op.Speculative, op.SyncBit = spec, bit
				var de *DecodeError
				if !errors.As(err, &de) || !strings.Contains(de.Msg, "impure") {
					t.Fatalf("decoding a speculative store: got %v, want an impure-op DecodeError", err)
				}
				return
			}
		}
	}
	t.Fatal("the kernel has no store to mark speculative")
}
