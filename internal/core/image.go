package core

import (
	"fmt"
	"slices"
	"sort"

	"vliwvp/internal/ir"
	"vliwvp/internal/machine"
	"vliwvp/internal/sched"
)

// This file implements the decode-once half of the simulator split: a
// Compile/Link step (DecodeImage) lowers an ir.Program plus its schedule
// into a dense, immutable Image — flat per-block op arrays indexed by
// block-local op IDs, presorted instruction issue lists, one flat
// scoreboard list per instruction, precomputed operand/producer/latency/
// sync metadata, and a dense prediction-site space — so the execution
// engine touches no maps, runs no sorts, and calls no allocating helpers
// (op.Uses) in its cycle loop. An Image is read-only after decode and
// safe to share across Simulators and goroutines; all mutable run state
// lives in the Simulator.

// DecodeError is the typed refusal of the image decoder: the program or
// schedule violates an invariant the dense image format cannot represent
// (out-of-range registers, malformed sites, schedules that disagree with
// their blocks). The decoder either returns a DecodeError or an image
// that passes Validate — it never panics on malformed input.
type DecodeError struct {
	Func  string
	Block int
	Op    int // block op index, -1 when not op-specific
	Msg   string
}

func (e *DecodeError) Error() string {
	if e.Op >= 0 {
		return fmt.Sprintf("core: decode %s b%d op%d: %s", e.Func, e.Block, e.Op, e.Msg)
	}
	if e.Block >= 0 {
		return fmt.Sprintf("core: decode %s b%d: %s", e.Func, e.Block, e.Msg)
	}
	return fmt.Sprintf("core: decode %s: %s", e.Func, e.Msg)
}

// imgOp is the decoded form of one operation: everything the engines need
// per issue, precomputed once.
type imgOp struct {
	op   *ir.Op   // original op: semantics (interp.ExecOp) and tracing identity
	uses []ir.Reg // precomputed op.Uses()
	def  ir.Reg   // precomputed op.Def()
	lat  int64    // result latency on the image's machine

	idx       int32  // own block op index
	siteLocal int32  // block-local site index (LdPred/CheckLd), -1 otherwise
	ldSite    int32  // dense load-site ID (Load/CheckLd), -1 otherwise
	bitMask   uint64 // 1<<SyncBit, 0 when the op has no Synchronization bit
	predSet   uint32 // block-local sites this (speculative) op's value consumes

	// producers[k] is the block op index of the in-block producer of
	// uses[k] (-1 live-in); srcKinds[k] classifies it per the OVB operand
	// taxonomy; prodSite[k] is the producer's block-local site index when
	// srcKinds[k]==srcLdPred.
	producers []int32
	srcKinds  []srcKind
	prodSite  []int32

	isControl bool // terminator or call: issued after the data ops
}

// imgInstr is one decoded long instruction.
type imgInstr struct {
	waitBits uint64
	// fetchAddr is the instruction's address in the image-wide fetch
	// space (one word per long instruction, assigned in decode order) —
	// the I-cache indexes on it.
	fetchAddr int64
	// ops holds block op indexes in schedule order (the stall-check scan
	// order); sorted holds the same indexes in ascending block order (the
	// issue order).
	ops    []int32
	sorted []int32
	// spec counts ops with Speculative set — the instruction's CCB
	// admission charge (levied whether or not the op later issues plain).
	spec int
	// score is the scoreboard list: each op's uses and then its def, in
	// ops (stall-scan) order, so the issue check is one flat scan. It is
	// carved from one array per block.
	score []scoreReg
	// bits ORs the ops' non-check Synchronization bits and barrier marks
	// a Call or Ret: the per-op structural scan can only stall when bits
	// meets a busy bit or a barrier meets live speculation.
	bits    uint64
	barrier bool
}

// scoreReg is one scoreboard-list entry: a register an op reads or
// writes, and that op's block index (stall events name the op).
type scoreReg struct {
	reg ir.Reg
	op  int32
}

// imgBlock is one decoded basic block.
type imgBlock struct {
	an     *BlockAnalysis
	bs     *sched.BlockSched
	ops    []imgOp // indexed by block op index
	instrs []imgInstr
	succs  []int
	// siteMask[li] is 1<<Sites[li].Bit — the Synchronization bit a
	// site's LdPred holds until its check resolves.
	siteMask []uint64
}

// imgFunc is one decoded function.
type imgFunc struct {
	f       *ir.Func
	fs      *sched.FuncSched
	blocks  []imgBlock
	numRegs int
	entry   int
}

// Image is the dense decoded program: the immutable product of the decode
// pass, shared by every Simulator (and every Batch item) built from it.
type Image struct {
	Prog  *ir.Program
	Sched *sched.ProgSched
	D     *machine.Desc

	funcs map[string]*imgFunc
	// analyses retains the per-block static decode, keyed by function
	// (Simulator.Analyses).
	analyses map[string][]*BlockAnalysis

	maxRegs      int
	numSites     int // dense predictor index space: max PredID + 1
	numOps       int // total decoded ops (validator bookkeeping)
	numLoadSites int // dense load-site space: one ID per static Load/CheckLd
	numInstrs    int // total long instructions: the fetch address space
}

// Analyses exposes the per-function block analyses (same shape the
// Simulator always published).
func (img *Image) Analyses() map[string][]*BlockAnalysis { return img.analyses }

// NumSites returns the dense prediction-site index space (max PredID+1).
func (img *Image) NumSites() int { return img.numSites }

// NumLoadSites returns the dense load-site space (one ID per static
// Load/CheckLd op) — the stride-stream prefetcher's table size.
func (img *Image) NumLoadSites() int { return img.numLoadSites }

// ImageFormatVersion names the decoded image layout; it participates in
// cache keys (the pipeline decode pass's Fingerprint) so caches invalidate
// when the format evolves.
const ImageFormatVersion = "image/v2"

// Fingerprint identifies the image's decode inputs for caching: the image
// format version and the machine (latencies enter every imgOp). Callers
// compose it with the plan key of the program/schedule the image was
// decoded from; see internal/exp.
func (img *Image) Fingerprint() string {
	return fmt.Sprintf("%s mach=%s", ImageFormatVersion, img.D.Name)
}

// DecodeImage lowers a scheduled program into its dense image. It returns
// a *DecodeError when the program or schedule cannot be represented.
func DecodeImage(prog *ir.Program, ps *sched.ProgSched, d *machine.Desc) (*Image, error) {
	if prog == nil || ps == nil || d == nil {
		return nil, &DecodeError{Func: "", Block: -1, Op: -1, Msg: "nil program, schedule, or machine"}
	}
	img := &Image{
		Prog:     prog,
		Sched:    ps,
		D:        d,
		funcs:    make(map[string]*imgFunc, len(prog.Funcs)),
		analyses: make(map[string][]*BlockAnalysis, len(prog.Funcs)),
	}
	for _, f := range prog.Funcs {
		fn, err := decodeFunc(img, f, ps.Funcs[f.Name], d)
		if err != nil {
			return nil, err
		}
		img.funcs[f.Name] = fn
		ans := make([]*BlockAnalysis, len(fn.blocks))
		for i := range fn.blocks {
			ans[i] = fn.blocks[i].an
		}
		img.analyses[f.Name] = ans
		if f.NumRegs > img.maxRegs {
			img.maxRegs = f.NumRegs
		}
	}
	return img, nil
}

func decodeFunc(img *Image, f *ir.Func, fs *sched.FuncSched, d *machine.Desc) (*imgFunc, error) {
	if f.NumRegs < 0 {
		return nil, &DecodeError{Func: f.Name, Block: -1, Op: -1, Msg: "negative register count"}
	}
	if fs == nil {
		return nil, &DecodeError{Func: f.Name, Block: -1, Op: -1, Msg: "no schedule for function"}
	}
	if len(fs.Blocks) != len(f.Blocks) {
		return nil, &DecodeError{Func: f.Name, Block: -1, Op: -1,
			Msg: fmt.Sprintf("schedule covers %d blocks, function has %d", len(fs.Blocks), len(f.Blocks))}
	}
	if f.Entry < 0 || f.Entry >= len(f.Blocks) {
		return nil, &DecodeError{Func: f.Name, Block: -1, Op: -1,
			Msg: fmt.Sprintf("entry block %d out of range", f.Entry)}
	}
	fn := &imgFunc{f: f, fs: fs, numRegs: f.NumRegs, entry: f.Entry, blocks: make([]imgBlock, len(f.Blocks))}
	for bi, b := range f.Blocks {
		if err := decodeBlock(img, fn, f, b, fs.Blocks[bi], d, bi); err != nil {
			return nil, err
		}
	}
	return fn, nil
}

func decodeBlock(img *Image, fn *imgFunc, f *ir.Func, b *ir.Block, bs *sched.BlockSched, d *machine.Desc, bi int) error {
	fail := func(op int, msg string) error {
		return &DecodeError{Func: f.Name, Block: bi, Op: op, Msg: msg}
	}
	if bs == nil {
		return fail(-1, "no schedule for block")
	}
	if bs.Block != b {
		return fail(-1, "schedule and block disagree")
	}
	an, err := Analyze(b)
	if err != nil {
		return fail(-1, err.Error())
	}
	for _, s := range b.Succs {
		if s < 0 || s >= len(f.Blocks) {
			return fail(-1, fmt.Sprintf("successor %d out of range", s))
		}
	}

	blk := &fn.blocks[bi]
	blk.an = an
	blk.bs = bs
	blk.succs = b.Succs
	blk.ops = make([]imgOp, len(b.Ops))
	blk.siteMask = make([]uint64, len(an.Sites))
	for li, site := range an.Sites {
		if site.Bit < 0 || site.Bit >= 64 {
			return fail(site.LdPredIdx, fmt.Sprintf("site bit %d out of range [0,64)", site.Bit))
		}
		blk.siteMask[li] = 1 << uint(site.Bit)
	}
	regOK := func(r ir.Reg) bool { return r == ir.NoReg || (r >= 0 && int(r) < f.NumRegs) }

	for i, op := range b.Ops {
		uses := op.Uses()
		if !regOK(op.Dest) || !regOK(op.A) || !regOK(op.B) || !regOK(op.C) {
			return fail(i, fmt.Sprintf("register out of range [0,%d)", f.NumRegs))
		}
		if op.SyncBit != ir.NoBit && (op.SyncBit < 0 || op.SyncBit >= 64) {
			return fail(i, fmt.Sprintf("Synchronization bit %d out of range [0,64)", op.SyncBit))
		}
		// The engine's plain write-back relies on execValue having stored
		// Dest at issue, which holds for every pure op.
		if op.Speculative && !op.Code.IsPure() {
			return fail(i, "impure op marked speculative")
		}
		info := an.Info[i]
		if len(info.Producers) != len(uses) {
			return fail(i, "producer arity disagrees with uses")
		}
		o := imgOp{
			op:        op,
			uses:      uses,
			def:       op.Def(),
			lat:       int64(d.Latency(op)),
			idx:       int32(i),
			siteLocal: -1,
			ldSite:    -1,
			predSet:   info.PredSet,
			isControl: op.Code.IsTerminator() || op.Code == ir.Call,
		}
		if op.Code == ir.Load || op.Code == ir.CheckLd {
			o.ldSite = int32(img.numLoadSites)
			img.numLoadSites++
		}
		if op.SyncBit != ir.NoBit {
			o.bitMask = 1 << uint(op.SyncBit)
		}
		switch op.Code {
		case ir.LdPred, ir.CheckLd:
			li, ok := an.SiteLocal[op.PredID]
			if !ok {
				return fail(i, fmt.Sprintf("no site for prediction id %d", op.PredID))
			}
			o.siteLocal = int32(li)
			if op.PredID >= img.numSites {
				img.numSites = op.PredID + 1
			}
			if op.Code == ir.LdPred && op.SyncBit == ir.NoBit {
				return fail(i, "LdPred without a Synchronization bit")
			}
		case ir.Br:
			if len(b.Succs) < 2 {
				return fail(i, "branch in a block with fewer than two successors")
			}
		case ir.Jmp:
			if len(b.Succs) < 1 {
				return fail(i, "jump in a block with no successor")
			}
		case ir.Call:
			for _, a := range op.Args {
				if a == ir.NoReg || !regOK(a) {
					return fail(i, fmt.Sprintf("call argument register %v out of range", a))
				}
			}
		}
		o.producers = make([]int32, len(uses))
		o.srcKinds = make([]srcKind, len(uses))
		o.prodSite = make([]int32, len(uses))
		for k := range uses {
			p := info.Producers[k]
			o.producers[k] = int32(p)
			o.srcKinds[k] = srcCorrect
			o.prodSite[k] = -1
			if p < 0 {
				continue
			}
			if p >= len(b.Ops) {
				return fail(i, fmt.Sprintf("producer index %d out of range", p))
			}
			prod := b.Ops[p]
			switch {
			case prod.Code == ir.LdPred:
				o.srcKinds[k] = srcLdPred
				o.prodSite[k] = int32(an.SiteLocal[prod.PredID])
			case prod.Speculative:
				o.srcKinds[k] = srcSpec
			}
		}
		blk.ops[i] = o
	}

	blk.instrs = make([]imgInstr, len(bs.Instrs))
	nScore := 0
	for ii, in := range bs.Instrs {
		di := &blk.instrs[ii]
		di.waitBits = in.WaitBits
		di.fetchAddr = int64(img.numInstrs)
		img.numInstrs++
		di.ops = make([]int32, len(in.Ops))
		for k, op := range in.Ops {
			idx := an.IndexOf(op)
			if idx < 0 {
				return fail(-1, fmt.Sprintf("instruction %d carries an op not in the block", ii))
			}
			di.ops[k] = int32(idx)
			if op.Speculative {
				di.spec++
			}
			nScore += len(blk.ops[idx].uses)
			if blk.ops[idx].def != ir.NoReg {
				nScore++
			}
		}
		di.sorted = append([]int32(nil), di.ops...)
		sort.Slice(di.sorted, func(a, b int) bool { return di.sorted[a] < di.sorted[b] })
		img.numOps += len(in.Ops)
	}
	score := make([]scoreReg, 0, nScore)
	for ii := range blk.instrs {
		di := &blk.instrs[ii]
		start := len(score)
		score, di.bits, di.barrier = appendScore(score, blk, di.ops)
		di.score = score[start:len(score):len(score)]
	}
	return nil
}

// appendScore appends to dst the scoreboard list of the instruction whose
// ops are the block op indexes ops, and returns it with the OR of the
// ops' non-check Synchronization bits and whether one is a Call or Ret.
func appendScore(dst []scoreReg, blk *imgBlock, ops []int32) ([]scoreReg, uint64, bool) {
	var bits uint64
	barrier := false
	for _, idx := range ops {
		o := &blk.ops[idx]
		for _, u := range o.uses {
			dst = append(dst, scoreReg{reg: u, op: idx})
		}
		if o.def != ir.NoReg {
			dst = append(dst, scoreReg{reg: o.def, op: idx})
		}
		if o.op.Code != ir.CheckLd {
			bits |= o.bitMask
		}
		if o.op.Code == ir.Call || o.op.Code == ir.Ret {
			barrier = true
		}
	}
	return dst, bits, barrier
}

// Validate re-checks the dense invariants of a decoded image: every index
// an engine dereferences without bounds checks (op indexes, producers,
// site locals, successors, registers) must be in range. DecodeImage output
// always validates; the fuzz harness holds the decoder to that contract.
func (img *Image) Validate() error {
	if img.Prog == nil || img.Sched == nil || img.D == nil {
		return fmt.Errorf("core: image missing program, schedule, or machine")
	}
	for _, f := range img.Prog.Funcs {
		fn := img.funcs[f.Name]
		if fn == nil {
			return fmt.Errorf("core: image missing function %q", f.Name)
		}
		if fn.entry < 0 || fn.entry >= len(fn.blocks) {
			return fmt.Errorf("core: image %s: entry %d out of range", f.Name, fn.entry)
		}
		for bi := range fn.blocks {
			blk := &fn.blocks[bi]
			if blk.an == nil || blk.bs == nil {
				return fmt.Errorf("core: image %s b%d: missing analysis or schedule", f.Name, bi)
			}
			nOps := len(blk.ops)
			nSites := len(blk.an.Sites)
			for _, s := range blk.succs {
				if s < 0 || s >= len(fn.blocks) {
					return fmt.Errorf("core: image %s b%d: successor %d out of range", f.Name, bi, s)
				}
			}
			for i := range blk.ops {
				o := &blk.ops[i]
				if o.op == nil {
					return fmt.Errorf("core: image %s b%d op%d: nil op", f.Name, bi, i)
				}
				if int(o.idx) != i {
					return fmt.Errorf("core: image %s b%d op%d: dense id %d misnumbered", f.Name, bi, i, o.idx)
				}
				if o.def != ir.NoReg && (o.def < 0 || int(o.def) >= fn.numRegs) {
					return fmt.Errorf("core: image %s b%d op%d: def register out of range", f.Name, bi, i)
				}
				for _, u := range o.uses {
					if u < 0 || int(u) >= fn.numRegs {
						return fmt.Errorf("core: image %s b%d op%d: use register out of range", f.Name, bi, i)
					}
				}
				if o.siteLocal >= 0 && int(o.siteLocal) >= nSites {
					return fmt.Errorf("core: image %s b%d op%d: site local %d out of range", f.Name, bi, i, o.siteLocal)
				}
				if o.ldSite >= 0 && int(o.ldSite) >= img.numLoadSites {
					return fmt.Errorf("core: image %s b%d op%d: load site %d outside dense space %d",
						f.Name, bi, i, o.ldSite, img.numLoadSites)
				}
				if (o.op.Code == ir.Load || o.op.Code == ir.CheckLd) && o.ldSite < 0 {
					return fmt.Errorf("core: image %s b%d op%d: load without a load-site ID", f.Name, bi, i)
				}
				if len(o.producers) != len(o.uses) || len(o.srcKinds) != len(o.uses) || len(o.prodSite) != len(o.uses) {
					return fmt.Errorf("core: image %s b%d op%d: operand metadata arity mismatch", f.Name, bi, i)
				}
				for k, p := range o.producers {
					if int(p) >= nOps {
						return fmt.Errorf("core: image %s b%d op%d: producer %d out of range", f.Name, bi, i, p)
					}
					if o.srcKinds[k] == srcLdPred && (o.prodSite[k] < 0 || int(o.prodSite[k]) >= nSites) {
						return fmt.Errorf("core: image %s b%d op%d: producer site out of range", f.Name, bi, i)
					}
				}
			}
			for ii := range blk.instrs {
				in := &blk.instrs[ii]
				if in.fetchAddr < 0 || int(in.fetchAddr) >= img.numInstrs {
					return fmt.Errorf("core: image %s b%d i%d: fetch address %d outside space %d",
						f.Name, bi, ii, in.fetchAddr, img.numInstrs)
				}
				if len(in.sorted) != len(in.ops) {
					return fmt.Errorf("core: image %s b%d i%d: sorted arity mismatch", f.Name, bi, ii)
				}
				for _, idx := range in.ops {
					if idx < 0 || int(idx) >= nOps {
						return fmt.Errorf("core: image %s b%d i%d: op id %d out of range", f.Name, bi, ii, idx)
					}
				}
				for k, idx := range in.sorted {
					if idx < 0 || int(idx) >= nOps {
						return fmt.Errorf("core: image %s b%d i%d: sorted op id %d out of range", f.Name, bi, ii, idx)
					}
					if k > 0 && in.sorted[k-1] > idx {
						return fmt.Errorf("core: image %s b%d i%d: issue order not sorted", f.Name, bi, ii)
					}
				}
				// The ops' registers and indexes are range-checked above, so
				// equality range-checks every scoreboard entry too.
				score, bits, barrier := appendScore(nil, blk, in.ops)
				if !slices.Equal(in.score, score) {
					return fmt.Errorf("core: image %s b%d i%d: scoreboard list disagrees with the ops' uses and defs", f.Name, bi, ii)
				}
				if in.bits != bits || in.barrier != barrier {
					return fmt.Errorf("core: image %s b%d i%d: Synchronization bits %#x or barrier %v disagree with the ops",
						f.Name, bi, ii, in.bits, in.barrier)
				}
			}
		}
		for i := range fn.blocks {
			blk := &fn.blocks[i]
			for _, o := range blk.ops {
				if o.op.PredID != ir.NoPred && o.op.PredID >= img.numSites {
					return fmt.Errorf("core: image %s b%d: prediction id %d outside dense site space %d",
						f.Name, i, o.op.PredID, img.numSites)
				}
			}
		}
	}
	return nil
}

// operand sources for CCB entries (the paper's OVB operand taxonomy).
type srcKind uint8

const (
	srcCorrect srcKind = iota
	srcLdPred
	srcSpec
)
