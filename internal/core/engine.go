package core

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"vliwvp/internal/interp"
	"vliwvp/internal/ir"
	"vliwvp/internal/machine"
	"vliwvp/internal/obs"
	"vliwvp/internal/predict"
	"vliwvp/internal/profile"
	"vliwvp/internal/sched"
)

// Simulator executes a whole program on the dual-engine machine with live
// value-predictor tables and full architectural state. Its results are
// validated against the sequential interpreter: same memory image, same
// output, same return value — only faster in cycles.
//
// This is the decode-once engine: NewSimulator lowers the program into a
// dense Image (see image.go) exactly once, and Run executes against flat
// arrays — a ring-buffer event wheel instead of a cycle-keyed closure map,
// pooled frames and block instances instead of per-call allocations, and a
// dense predictor slice instead of a map. With no Sink attached, the
// warmed steady state allocates nothing per cycle; the timing digest
// (digest_test.go) freezes its cycles, counters, events and final state
// over the CI corpora.
//
// Pooling invariants (the Reset contract):
//   - a frame is recycled only when it is dead (popped or reset) AND no
//     in-flight wheel event still references it (pin count zero) — late
//     write-backs to a dead frame must still arbitrate and trace. An
//     untraced plain write-back is not an event (writePlain), so it pins
//     nothing;
//   - a block instance is recycled only when no frame runs it, no CCB
//     entry of it is live, and no check-resolve event references it;
//   - acquisition clears registers, scoreboard, sequence numbers, site
//     state, and CCB entry links, so no Synchronization bits, CCB state,
//     or predictor state can leak between Run calls (reset_test.go).
type Simulator struct {
	Prog     *ir.Program
	Sched    *sched.ProgSched
	D        *machine.Desc
	Analyses map[string][]*BlockAnalysis
	// Schemes selects the predictor family per prediction site ID.
	Schemes map[int]profile.Scheme
	// NewPredictor, when set, overrides Schemes: it is invoked once per
	// prediction site per Run to build that site's predictor. The
	// conformance harness uses it to record a site's value stream with
	// predict.Recorder and then replay it through predict.Replay as a
	// perfect predictor. Returning nil falls back to the Schemes choice.
	NewPredictor func(predID int) predict.Predictor

	// CCBCapacity bounds in-flight speculative operations.
	CCBCapacity int
	// MaxCycles aborts runaway simulations.
	MaxCycles int64
	// MemCfg selects the memory-hierarchy timing model (cache.go): nil is
	// the paper's flat model (every load costs its machine latency,
	// instruction fetch is free). Like CCBCapacity it is sim-time only —
	// it never affects compilation or architectural results (the
	// conformance suite pins that only cycle counts move).
	MemCfg *machine.MemConfig
	// PredCfg parameterizes the hardware value predictors (table sizes for
	// the forced schemes) and enables runtime confidence gating when its
	// ConfThreshold is positive: each site carries a saturating counter
	// trained on its check outcomes, and a LdPred at an unconfident site
	// is suppressed — the datapath is unchanged (the predicted value is
	// still written and the Synchronization bit set, keeping the schedule
	// valid), but the site always takes the repair path at its check, so
	// dependents re-execute from the verified value and the site never
	// pays a misprediction recovery. Nil keeps the legacy behavior
	// (default-sized tables, no gating), byte-identical to PR-7 runs.
	// Like MemCfg it rebinds on pointer change; an unchanged binding
	// reuses the predictor tables allocation-free.
	PredCfg *predict.Config
	// Sink, when set, receives a typed obs.Event per engine event:
	// instruction issues, stalls, predictions, CCB captures, verification
	// verdicts, compensation flushes/re-executions, and register
	// write-backs. With no Sink attached, the issue/stall path performs no
	// event work at all; obs.TextFunc narrates the events as text lines.
	Sink obs.EventSink

	// SerialRecovery switches the machine to the prior scheme the paper
	// compares against ([4]): no Compensation Code Engine — on a
	// misprediction the main engine branches to a statically scheduled
	// recovery block, executes it serially, and branches back. The
	// architectural effects are applied immediately; the cost is charged
	// as a front-end stall of 2*Control.BranchPenalty + RecoveryLen[site].
	SerialRecovery bool
	// RecoveryLen gives each prediction site's recovery-block schedule
	// length (from the baseline model). Sites absent from the map charge
	// one cycle.
	RecoveryLen map[int]int
	// Control is the control-speculation model (machine.ControlConfig):
	// the serial-recovery taken-branch penalty plus, when Control.Branch
	// selects a direction predictor, the redirect/flush latencies and the
	// flush of in-flight LdPred state on a mispredicted branch. The zero
	// value reproduces the pre-ControlConfig machine byte-for-byte. Like
	// PredCfg, the predictor rebinds on Branch pointer change; an
	// unchanged binding reuses the pooled tables allocation-free.
	Control machine.ControlConfig

	// FaultCCEWritebackXor, when nonzero, corrupts every compensation
	// re-execution result by XORing it with this mask before write-back.
	// It models a CCE write-back datapath bug and exists so the
	// conformance suite can prove it catches one (the architectural
	// results then diverge from the sequential interpreter whenever a
	// misprediction forces a re-execution). Never set outside tests.
	FaultCCEWritebackXor uint64
	// FaultConfidenceMisgate, when set, models a confidence-gating logic
	// bug: a suppressed site whose prediction turns out WRONG is treated
	// as verified correct — its dependents keep the stale predicted value
	// instead of re-executing. The conformance suite's predictor axis
	// must catch the resulting architectural divergence. Never set
	// outside tests.
	FaultConfidenceMisgate bool
	// FaultBranchFlushElide, when set, models a flush-logic bug: a
	// mispredicted branch skips the whole wrong-path flush (flushInFlight)
	// — in-flight LdPred sites are not marked and verified CCB head
	// entries are not squashed. The flush is architecturally conservative,
	// so the fault changes no architectural state; the conformance event
	// check (no cce.flush in a mispredict's cycle) and the timing digest
	// catch it instead. Never set outside tests.
	FaultBranchFlushElide bool

	// Results.
	Cycles      int64
	Instrs      int64 // long instructions issued
	Ops         int64 // operations issued on the VLIW engine
	StallSync   int64 // cycles stalled on the Synchronization register
	StallScore  int64 // cycles stalled on the register scoreboard
	StallCCB    int64 // cycles stalled on a full CCB
	StallBar    int64 // cycles stalled on call/return barriers
	CCEExecuted int64
	CCEFlushed  int64
	Mispredicts int64
	Predictions int64
	// Suppressed counts LdPred issues gated off by the confidence
	// counters (not included in Predictions); SuppressedWrong counts the
	// suppressed issues whose prediction would have been wrong — the
	// gate's true positives.
	Suppressed      int64
	SuppressedWrong int64
	// StallRecovery counts serial-mode cycles spent in recovery blocks
	// (including branch penalties).
	StallRecovery int64
	// Branch-predictor counters (all zero while Control.Branch is nil).
	BranchPredicts    int64 // conditional branches the direction predictor called
	BranchMispredicts int64 // of those, called wrong
	BranchFlushed     int64 // in-flight sites plus CCB entries flushed by branch mispredicts
	BranchSquashed    int64 // of BranchFlushed, verified CCB entries squashed before CCE dispatch
	StallRedirect     int64 // cycles stalled on fetch redirects and branch flushes
	// Memory-hierarchy counters (all zero under the flat model).
	DHits       int64 // demand loads that hit the first-level D-cache
	DMisses     int64 // demand loads that missed it (lower level or memory)
	IMisses     int64 // instruction fetches that missed the I-cache
	StallIFetch int64 // cycles stalled on instruction fetch
	PrefIssued  int64 // prefetch line fills issued
	PrefUseful  int64 // demand hits on lines a prefetch brought in
	// MaxCCBOccupancy is the peak number of in-flight CCB entries — the
	// empirical sizing requirement for the buffer (compare the E10 sweep).
	MaxCCBOccupancy int
	Output          []string
	// ccbOcc tallies the live CCB occupancy observed at each speculative
	// capture into power-of-two buckets (<=1, <=2, <=4, ... and overflow);
	// Metrics exports it as the "ccb.occupancy" histogram.
	ccbOcc [ccbOccBuckets]int64

	// internal state
	img           *Image
	msys          *memSys     // hierarchy state, nil under the flat model
	pf            *prefetcher // stride-stream prefetcher, nil when disabled
	stallUntil    int64       // serial-mode recovery stall horizon
	redirectUntil int64       // branch redirect/flush stall horizon
	drainAt       int64       // latest landing cycle of a write kept off the wheel
	seq           int64
	mem           *interp.Machine // reused for operation semantics + memory
	syncBusy      uint64
	cycle         int64
	wheel         eventWheel
	ccb           []ccbRef
	ccbHead       int
	stack         []*frame
	scratch       []uint64
	simErr        error
	callDepth     int
	finalRegs     []uint64

	// Predictor table, dense by prediction-site ID. predRun marks the run
	// epoch each slot was (re)initialized in, so reusable predictors are
	// Reset instead of reallocated and the NewPredictor hook still fires
	// once per site per Run.
	preds      []predict.Predictor
	predRun    []int64
	predCustom []bool
	predScheme []profile.Scheme
	runEpoch   int64
	// conf holds the per-site confidence counters (dense by site ID,
	// zeroed each reset); vtage is the run-shared tagged table the
	// SchemeVTAGE site views address, reset once per run; predsFor is the
	// PredCfg the current predictor table was built for (pointer
	// identity, like msys.cfg), so rebinding a different config rebuilds
	// the tables while an unchanged binding reuses them.
	conf     []predict.ConfCounter
	vtage    *predict.VTAGE
	predsFor *predict.Config
	// bp is the pooled branch-direction predictor (nil while
	// Control.Branch is nil); bpFor is the BranchConfig it was built for
	// (pointer identity, like predsFor) — rebinding rebuilds, an unchanged
	// binding Resets in place.
	bp    *predict.BranchPredictor
	bpFor *predict.BranchConfig
	// pending is the in-flight check list: one entry per issued, not yet
	// resolved CheckLd, in issue order from pendingHead. A branch
	// mispredict walks it to flush every in-flight prediction — the sites
	// live in other blocks' pinned instances, unreachable from the
	// branch's own frame. Entries pin their instance; resolveCheck sweeps
	// resolved entries from the head (resolution is near-FIFO, and the
	// final check of a run always drains the list). The backing array is
	// retained across runs, so steady state appends allocate nothing.
	pending     []pendingCheck
	pendingHead int

	// Pools (see the type comment for the recycling invariants).
	framePool []*frame
	instPool  []*blockInst
}

// pendingCheck names one in-flight check's site: the instance that owns
// it (pinned while listed) and the site's block-local index.
type pendingCheck struct {
	inst *blockInst
	li   int32
}

// ccbOccBuckets sizes the occupancy histogram: buckets <=1, <=2, <=4 ...
// <=1024 plus overflow.
const ccbOccBuckets = 12

const maxSimCallDepth = 1000

// frame is one activation record.
type frame struct {
	fn       *imgFunc
	regs     []uint64
	readyAt  []int64 // scoreboard: cycle each register's pending write lands
	lastSeq  []int64 // sequence number of the newest writer per register
	blockID  int
	instrIdx int
	inst     *blockInst // current block's speculation instance
	retDest  ir.Reg     // caller-side destination (stored on the CALLEE's frame)
	returned bool
	retVal   uint64

	// Instruction-fetch state (I-cache configs only): fetched marks the
	// current instruction's fetch as already probed; fetchUntil is the
	// cycle the fetch completes (stall until then).
	fetched    bool
	fetchUntil int64

	pins   int32 // in-flight wheel events referencing this frame
	dead   bool  // popped (or reset); recyclable once pins reach zero
	pooled bool
}

// blockInst is the per-dynamic-instance speculation state of a block. Its
// CCB entries live in a reusable slab addressed by index (entryOf stores
// index+1, 0 = none) so recycling never chases stale pointers.
type blockInst struct {
	blk     *imgBlock
	sites   []siteInst
	entries []dynEntry
	entryOf []int32 // block op index -> slab index + 1

	live   int32 // CCB entries of this instance not yet retired
	pins   int32 // in-flight check-resolve events referencing this instance
	active bool  // some frame's current instance
	pooled bool
}

// siteInst is one dynamic prediction.
type siteInst struct {
	predicted uint64
	resolved  bool
	correct   bool
	// suppressed marks a confidence-gated issue: the predicted value was
	// written (datapath unchanged) but the site takes the repair path at
	// its check regardless of the comparison, so dependents re-execute
	// from the verified value.
	suppressed bool
	// flushed marks a site whose prediction was discarded by a branch
	// mispredict while its check was still in flight: like a suppressed
	// site it takes the repair path regardless of the comparison
	// (conservative, so architecturally safe), but it is counted as a
	// branch flush, not a value mispredict.
	flushed bool
	actual  uint64
}

type operandRef struct {
	kind   srcKind
	reg    ir.Reg
	value  uint64 // value observed at VLIW issue
	siteLi int32  // srcLdPred: block-local site index
	srcIdx int32  // srcSpec: producer's slab index, -1 when it issued plain
}

// dynEntry is one Compensation Code Buffer entry (with its Operand Value
// Buffer slots inlined).
type dynEntry struct {
	op       *ir.Op
	opIdx    int32
	fr       *frame
	operands []operandRef
	seq      int64 // write sequence of the entry's own VLIW write
	issueErr error // fault observed executing speculatively on the VLIW engine

	recomputed bool
	newValue   uint64
	doneAt     int64
	bitCleared bool
}

// ccbRef addresses one buffered entry: the owning instance plus its slab
// index (stable across slab growth, unlike a pointer).
type ccbRef struct {
	inst *blockInst
	idx  int32
}

// NewSimulator wires a simulator for a scheduled (optionally transformed)
// program: it decodes the program into a dense image and binds an engine
// to it. Use NewSimulatorFromImage to share one decoded image across
// several simulators (or a Batch).
func NewSimulator(prog *ir.Program, ps *sched.ProgSched, d *machine.Desc,
	schemes map[int]profile.Scheme) (*Simulator, error) {

	img, err := DecodeImage(prog, ps, d)
	if err != nil {
		return nil, err
	}
	return NewSimulatorFromImage(img, schemes), nil
}

// NewSimulatorFromImage binds a fresh engine to an already-decoded image.
// The image is read-only and may be shared.
func NewSimulatorFromImage(img *Image, schemes map[int]profile.Scheme) *Simulator {
	s := &Simulator{
		Prog:        img.Prog,
		Sched:       img.Sched,
		D:           img.D,
		Analyses:    img.analyses,
		Schemes:     schemes,
		CCBCapacity: DefaultCCBCapacity,
		MaxCycles:   DefaultMaxCycles,
		img:         img,
		scratch:     make([]uint64, img.maxRegs),
		mem:         interp.New(img.Prog),
		preds:       make([]predict.Predictor, img.numSites),
		predRun:     make([]int64, img.numSites),
		predCustom:  make([]bool, img.numSites),
		predScheme:  make([]profile.Scheme, img.numSites),
		conf:        make([]predict.ConfCounter, img.numSites),
	}
	return s
}

// Image returns the decoded image the simulator executes.
func (s *Simulator) Image() *Image { return s.img }

// reset restores construction-time state so a reused Simulator's runs are
// independent and reproducible: statistics (including MaxCCBOccupancy and
// every stall counter), engine state, predictor tables, and the
// architectural memory image all start fresh. Frames and block instances
// from the previous run return to the pools; the event wheel drains
// unexecuted (drain-on-reset covers aborted runs).
func (s *Simulator) reset() {
	s.Cycles, s.Instrs, s.Ops = 0, 0, 0
	s.StallSync, s.StallScore, s.StallCCB, s.StallBar = 0, 0, 0, 0
	s.CCEExecuted, s.CCEFlushed, s.Mispredicts, s.Predictions = 0, 0, 0, 0
	s.Suppressed, s.SuppressedWrong = 0, 0
	s.StallRecovery = 0
	s.BranchPredicts, s.BranchMispredicts, s.BranchFlushed, s.BranchSquashed, s.StallRedirect = 0, 0, 0, 0, 0
	s.DHits, s.DMisses, s.IMisses, s.StallIFetch = 0, 0, 0, 0
	s.PrefIssued, s.PrefUseful = 0, 0
	s.resetMem()
	s.MaxCCBOccupancy = 0
	s.ccbOcc = [ccbOccBuckets]int64{}
	s.Output = nil
	s.stallUntil, s.redirectUntil, s.drainAt, s.seq, s.cycle = 0, 0, 0, 0, 0
	s.callDepth = 0
	s.syncBusy = 0
	s.simErr = nil
	s.wheel.reset()
	s.ccb, s.ccbHead = s.ccb[:0], 0
	// The pending-check list's pins die with the instances below; just
	// clear the references so pooled instances aren't retained.
	for i := range s.pending {
		s.pending[i] = pendingCheck{}
	}
	s.pending, s.pendingHead = s.pending[:0], 0
	for _, fr := range s.stack {
		if bi := fr.inst; bi != nil {
			fr.inst = nil
			bi.active = false
			bi.pins, bi.live = 0, 0 // references died with the wheel and CCB
			s.maybeReleaseInst(bi)
		}
		fr.dead = true
		fr.pins = 0
		s.maybeReleaseFrame(fr)
	}
	s.stack = s.stack[:0]
	s.runEpoch++ // lazily invalidates the whole predictor table
	// Predictor-config rebinding mirrors resetMem: a different binding
	// rebuilds the tables (their sizes are config-shaped); an unchanged
	// binding keeps them for epoch-based lazy reuse. The shared VTAGE
	// table resets here exactly once — site views reset lazily and must
	// not clear it mid-run (see predict.VTAGE).
	if s.predsFor != s.PredCfg {
		s.predsFor = s.PredCfg
		for i := range s.preds {
			s.preds[i] = nil
		}
		s.vtage = nil
	}
	if s.vtage != nil {
		s.vtage.Reset()
	}
	// Branch-predictor rebinding follows the same pattern: a different
	// Control.Branch binding rebuilds the tables (their sizes are
	// config-shaped); an unchanged binding Resets them in place — a reset
	// predictor is indistinguishable from a cold one, so steady-state
	// reuse allocates nothing.
	if s.bpFor != s.Control.Branch {
		s.bpFor = s.Control.Branch
		s.bp = predict.NewBranchPredictor(s.Control.Branch)
	} else if s.bp != nil {
		s.bp.Reset()
	}
	for i := range s.conf {
		s.conf[i] = 0
	}
	s.mem.Reset()
}

// resetMem reconciles the hierarchy state with MemCfg: (re)built on a
// config rebinding, reset in place (no allocation) when the binding is
// unchanged — the batch rebinding path stays zero-alloc in steady state.
func (s *Simulator) resetMem() {
	if s.MemCfg.Flat() {
		// A nil or explicitly flat config is the legacy fixed-latency
		// machine: no hierarchy state, no mem events, no counters — byte
		// identical to the pre-hierarchy engine, not merely cycle equal.
		s.msys, s.pf = nil, nil
		return
	}
	if s.msys == nil || s.msys.cfg != s.MemCfg {
		s.msys = newMemSys(s.MemCfg)
	} else {
		s.msys.reset()
	}
	if p := s.MemCfg.Prefetch; p.Degree > 0 {
		if s.pf == nil || s.pf.params != p || len(s.pf.streams) < s.img.numLoadSites {
			s.pf = newPrefetcher(p, s.img.numLoadSites)
		} else {
			s.pf.reset()
		}
	} else {
		s.pf = nil
	}
}

// loadAccess charges one D-hierarchy access for a load at word address
// addr (flat is the static latency returned when no hierarchy is
// configured). train gates prefetcher training: VLIW-path demand
// accesses train; compensation re-executions do not (their corrected
// addresses replay the past, not the stream's future).
func (s *Simulator) loadAccess(flat int64, site int32, addr int64, train bool) int64 {
	if s.msys == nil {
		return flat
	}
	lat, lvl, prefHit := s.msys.dAccess(addr, s.cycle)
	if lvl == 0 {
		s.DHits++
	} else {
		s.DMisses++
	}
	if prefHit {
		s.PrefUseful++
	}
	if s.tracing() {
		kind, served := obs.KindMemHit, lvl+1
		if lvl > 0 {
			kind = obs.KindMemMiss
			if lvl == len(s.msys.levels) {
				served = 0 // main memory
			}
		}
		s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW, Kind: kind,
			Bit: -1, Addr: addr, Lat: lat, Level: served})
	}
	if train && s.pf != nil && site >= 0 {
		if confirmed, delta := s.pf.observe(site, addr); confirmed {
			for k := 1; k <= s.pf.params.Degree; k++ {
				pa := addr + delta*int64(k)
				if s.msys.prefetchFill(pa, s.cycle) {
					s.PrefIssued++
					if s.tracing() {
						s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
							Kind: obs.KindMemPrefetch, Bit: -1, Addr: pa, Site: int(site)})
					}
				}
			}
		}
	}
	return lat
}

// tracing reports whether an event sink is attached; emitters guard on it
// so the disabled path builds no events.
func (s *Simulator) tracing() bool { return s.Sink != nil }

// Metrics returns the observability snapshot of the most recent Run (or
// the zeroed state before any run): every stall cause, prediction and
// compensation counter, plus the CCB occupancy histogram. Snapshots of
// identical runs are identical (see reset).
func (s *Simulator) Metrics() obs.Snapshot {
	reg := obs.NewRegistry()
	s.PublishMetrics(reg)
	return reg.Snapshot()
}

// PublishMetrics writes the run's counters and histograms into a shared
// registry (callers aggregating several simulators snapshot the registry
// once at the end).
func (s *Simulator) PublishMetrics(reg *obs.Registry) {
	set := func(name string, v int64) { reg.Counter(name).Set(v) }
	set("sim.cycles", s.Cycles)
	set("sim.instrs", s.Instrs)
	set("sim.ops", s.Ops)
	set("stall.sync", s.StallSync)
	set("stall.scoreboard", s.StallScore)
	set("stall.ccb", s.StallCCB)
	set("stall.barrier", s.StallBar)
	set("stall.recovery", s.StallRecovery)
	set("stall.redirect", s.StallRedirect)
	set("branch.predicts", s.BranchPredicts)
	set("branch.mispredicted", s.BranchMispredicts)
	set("branch.flushed", s.BranchFlushed)
	set("branch.squashed", s.BranchSquashed)
	set("pred.predictions", s.Predictions)
	set("pred.mispredicted", s.Mispredicts)
	set("pred.verified", s.Predictions-s.Mispredicts)
	set("pred.suppressed", s.Suppressed)
	set("pred.suppressed_wrong", s.SuppressedWrong)
	set("cce.flushed", s.CCEFlushed)
	set("cce.executed", s.CCEExecuted)
	set("ccb.max_occupancy", int64(s.MaxCCBOccupancy))
	set("mem.dhits", s.DHits)
	set("mem.dmisses", s.DMisses)
	set("mem.imisses", s.IMisses)
	set("stall.ifetch", s.StallIFetch)
	set("mem.prefetch.issued", s.PrefIssued)
	set("mem.prefetch.useful", s.PrefUseful)
	h := reg.Histogram("ccb.occupancy", obs.Pow2Bounds(ccbOccBuckets-1))
	for i, n := range s.ccbOcc {
		h.SetBucket(i, n)
	}
}

// Run executes the entry function and returns its result. Each call starts
// from a fresh architectural state: a Simulator may be reused, and every
// run reports independent statistics. After the first call, reuse hits the
// frame/instance pools and the retained predictor table, so an untraced
// steady-state Run performs no per-cycle heap allocation.
func (s *Simulator) Run(entry string, args ...uint64) (uint64, error) {
	fn := s.img.funcs[entry]
	if fn == nil {
		return 0, fmt.Errorf("core: no function %q", entry)
	}
	if s.MemCfg != nil {
		if err := s.MemCfg.Validate(); err != nil {
			return 0, err
		}
	}
	if err := s.PredCfg.Validate(); err != nil {
		return 0, err
	}
	if err := s.Control.Validate(); err != nil {
		return 0, err
	}
	s.reset()
	root := s.acquireFrame(fn, ir.NoReg)
	copy(root.regs, args)
	s.stack = append(s.stack, root)

	for {
		if s.cycle > s.MaxCycles {
			return 0, fmt.Errorf("core: exceeded %d cycles (deadlock?): %w", s.MaxCycles, ErrCycleLimit)
		}
		// 1. Apply this cycle's events (bit clears, register write-backs,
		// check resolutions).
		if s.wheel.len() > 0 {
			s.wheel.run(s.cycle, s.execEvent)
		}
		if s.simErr != nil {
			return 0, s.simErr
		}

		// 2. VLIW Engine issue attempt.
		done, err := s.stepVLIW()
		if err != nil {
			return 0, err
		}

		// 3. Compensation Code Engine: dispatch at most one entry. The
		// serial machine drains inline, so it runs even on an empty CCB.
		if s.ccbHead < len(s.ccb) || s.SerialRecovery {
			s.stepCCE()
		}
		if s.simErr != nil {
			return 0, s.simErr
		}

		if done {
			// Drain: let outstanding events (writes) land for determinism.
			for s.wheel.len() > 0 {
				s.cycle++
				s.wheel.run(s.cycle, s.execEvent)
			}
			// Plain write-backs kept off the wheel land by drainAt.
			if s.cycle < s.drainAt {
				s.cycle = s.drainAt
			}
			s.Cycles = s.cycle + 1
			s.Output = s.mem.Output
			s.finalRegs = append(s.finalRegs[:0], root.regs...)
			return root.retVal, s.simErr
		}
		s.cycle++
	}
}

// FinalRegs returns the root frame's register file as of the end of the
// most recent successful Run (the architectural register state the timing
// digest hashes). The slice is reused across runs.
func (s *Simulator) FinalRegs() []uint64 { return s.finalRegs }

// acquireFrame takes a frame from the pool (or allocates the first time)
// and initializes it to the zero activation state of fn.
func (s *Simulator) acquireFrame(fn *imgFunc, retDest ir.Reg) *frame {
	var fr *frame
	if n := len(s.framePool); n > 0 {
		fr = s.framePool[n-1]
		s.framePool = s.framePool[:n-1]
	} else {
		fr = &frame{}
	}
	fr.fn = fn
	fr.regs = resizeU64(fr.regs, fn.numRegs)
	fr.readyAt = resizeI64(fr.readyAt, fn.numRegs)
	fr.lastSeq = resizeI64(fr.lastSeq, fn.numRegs)
	fr.blockID = fn.entry
	fr.instrIdx = 0
	fr.inst = nil
	fr.retDest = retDest
	fr.returned = false
	fr.retVal = 0
	fr.fetched = false
	fr.fetchUntil = 0
	fr.pins = 0
	fr.dead = false
	fr.pooled = false
	return fr
}

func (s *Simulator) maybeReleaseFrame(fr *frame) {
	if fr.dead && fr.pins == 0 && !fr.pooled {
		fr.pooled = true
		fr.fn = nil
		fr.inst = nil
		s.framePool = append(s.framePool, fr)
	}
}

// acquireInst takes a block instance from the pool and initializes it for
// blk: sites zeroed, entry slab emptied, entry links cleared.
func (s *Simulator) acquireInst(blk *imgBlock) *blockInst {
	var bi *blockInst
	if n := len(s.instPool); n > 0 {
		bi = s.instPool[n-1]
		s.instPool = s.instPool[:n-1]
	} else {
		bi = &blockInst{}
	}
	bi.blk = blk
	bi.sites = resizeSites(bi.sites, len(blk.an.Sites))
	bi.entryOf = resizeI32(bi.entryOf, len(blk.ops))
	bi.entries = bi.entries[:0]
	bi.live, bi.pins = 0, 0
	bi.active = true
	bi.pooled = false
	return bi
}

func (s *Simulator) maybeReleaseInst(bi *blockInst) {
	if !bi.active && bi.live == 0 && bi.pins == 0 && !bi.pooled {
		bi.pooled = true
		bi.blk = nil
		s.instPool = append(s.instPool, bi)
	}
}

// newEntry extends the instance's CCB slab by one zeroed entry (retaining
// its operand slice capacity) and returns the slab index. Callers must
// re-take entry pointers after any newEntry call: the slab may move.
func (bi *blockInst) newEntry() int32 {
	if len(bi.entries) < cap(bi.entries) {
		bi.entries = bi.entries[:len(bi.entries)+1]
	} else {
		bi.entries = append(bi.entries, dynEntry{})
	}
	e := &bi.entries[len(bi.entries)-1]
	ops := e.operands[:0]
	*e = dynEntry{}
	e.operands = ops
	return int32(len(bi.entries) - 1)
}

func resizeU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func resizeI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func resizeSites(s []siteInst, n int) []siteInst {
	if cap(s) < n {
		return make([]siteInst, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = siteInst{}
	}
	return s
}

// schedule enqueues a typed event, pinning the pooled objects it
// references; cycles at or before the current one execute immediately
// (unreachable with stock latencies, all >= 1).
func (s *Simulator) schedule(cycle int64, ev wev) {
	if cycle <= s.cycle {
		s.execEventBody(&ev)
		return
	}
	if ev.fr != nil {
		ev.fr.pins++
	}
	if ev.inst != nil {
		ev.inst.pins++
	}
	s.wheel.schedule(s.cycle, cycle, ev)
}

// execEvent runs one matured event and releases its pins.
func (s *Simulator) execEvent(ev *wev) {
	s.execEventBody(ev)
	if ev.fr != nil {
		ev.fr.pins--
		s.maybeReleaseFrame(ev.fr)
	}
	if ev.inst != nil {
		ev.inst.pins--
		s.maybeReleaseInst(ev.inst)
	}
}

// execEventBody applies an event's semantic action.
func (s *Simulator) execEventBody(ev *wev) {
	switch ev.kind {
	case wevWrite:
		s.applyWrite(ev.fr, ev.reg, ev.val, ev.seq)
	case wevClearBits:
		s.syncBusy &^= ev.mask
	case wevCCEWriteback:
		s.syncBusy &^= ev.mask // mask is zero when verification already cleared the bit
		s.applyWrite(ev.fr, ev.reg, ev.val, ev.seq)
	case wevCheckResolve:
		s.resolveCheck(ev)
	}
}

// resolveCheck completes a check-prediction load.
func (s *Simulator) resolveCheck(ev *wev) {
	si := &ev.inst.sites[ev.li]
	actual := ev.val
	si.resolved = true
	si.actual = actual
	correct := actual == si.predicted
	if s.tracing() {
		s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
			Kind: obs.KindCheckResolve, Op: ev.op, Bit: -1, Site: ev.op.PredID,
			Predicted: int64(si.predicted), Actual: int64(actual),
			Correct: correct, Gated: si.suppressed, Flushed: si.flushed})
	}
	s.syncBusy &^= ev.mask // the LdPred bit always clears
	// A suppressed site always takes the repair path, even when the
	// comparison happens to match: the machine committed to not trusting
	// the prediction at issue time, so dependents wait for the verified
	// value. The confidence counter still trains on the true outcome.
	// A branch-flushed site likewise repairs regardless of the comparison
	// — its prediction was discarded with the mispredicted path.
	verified := correct && !si.suppressed && !si.flushed
	if si.suppressed && !correct {
		s.SuppressedWrong++
		if s.FaultConfidenceMisgate {
			verified = true // injected bug: stale predicted value survives
		}
	}
	if verified {
		si.correct = true
		s.clearVerifiedBits()
	} else {
		if !si.suppressed && !correct {
			s.Mispredicts++
		}
		s.applyWrite(ev.fr, ev.reg, actual, ev.seq)
		if s.SerialRecovery {
			// Branch to the statically scheduled recovery block, run it
			// serially on the main engine, branch back. A suppressed or
			// flushed site charges only the recovery schedule: the compiler
			// lays the recovery code out as the fall-through path when the
			// prediction was never trusted, so no branches are taken.
			rl, ok := s.RecoveryLen[ev.op.PredID]
			if !ok {
				rl = 1
			}
			stall := int64(rl)
			if !si.suppressed && !correct {
				stall += int64(2 * s.Control.BranchPenalty)
			}
			until := s.cycle + stall
			if until > s.stallUntil {
				s.stallUntil = until
			}
		}
	}
	if s.SerialRecovery {
		s.drainResolvedSerial()
	}
	if s.PredCfg.Gating() {
		s.conf[ev.op.PredID].Train(correct, s.PredCfg.ConfMax())
	}
	p := s.sitePredictor(ev.op.PredID)
	p.Update(actual)
	// Sweep resolved entries off the pending-check list's head. Resolution
	// is near-FIFO (issue order plus bounded latency spread), and the last
	// check of a run always drains the list completely.
	for s.pendingHead < len(s.pending) {
		pc := s.pending[s.pendingHead]
		if !pc.inst.sites[pc.li].resolved {
			break
		}
		s.pending[s.pendingHead] = pendingCheck{}
		s.pendingHead++
		pc.inst.pins--
		s.maybeReleaseInst(pc.inst)
	}
	if s.pendingHead == len(s.pending) {
		s.pending, s.pendingHead = s.pending[:0], 0
	}
}

// stepVLIW attempts to issue the current long instruction of the top frame.
// It returns done=true when the root frame has returned.
func (s *Simulator) stepVLIW() (bool, error) {
	fr := s.stack[len(s.stack)-1]
	if fr.returned {
		return s.popFrame(fr)
	}
	if s.cycle < s.redirectUntil {
		s.StallRedirect++
		return false, nil
	}
	if s.cycle < s.stallUntil {
		s.StallRecovery++
		return false, nil
	}
	blk := &fr.fn.blocks[fr.blockID]
	if fr.inst == nil {
		fr.inst = s.acquireInst(blk)
	}
	if fr.instrIdx >= len(blk.instrs) {
		// Empty block (no terminator would be invalid; handled at build).
		return false, fmt.Errorf("core: ran off schedule of %s b%d", fr.fn.f.Name, fr.blockID)
	}
	in := &blk.instrs[fr.instrIdx]

	// Instruction fetch: probe the I-cache once per dynamic instruction,
	// then stall until the fetch completes.
	if s.msys != nil && s.msys.hasICache() {
		if !fr.fetched {
			fr.fetched = true
			pen, miss := s.msys.iAccess(in.fetchAddr, s.cycle)
			fr.fetchUntil = s.cycle + pen
			if miss {
				s.IMisses++
			}
		}
		if s.cycle < fr.fetchUntil {
			s.StallIFetch++
			if s.tracing() {
				s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
					Kind: obs.KindStallIFetch, Bit: -1})
			}
			return false, nil
		}
	}

	// Synchronization-register stall.
	if in.waitBits&s.syncBusy != 0 {
		s.StallSync++
		if s.tracing() {
			s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
				Kind: obs.KindStallSync, Bit: -1, Wait: in.waitBits, Busy: s.syncBusy})
		}
		return false, nil
	}
	// Scoreboard stall: every source (and destination) register must have
	// its pending write landed.
	for _, sr := range in.score {
		if fr.readyAt[sr.reg] > s.cycle {
			s.StallScore++
			if s.tracing() {
				s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
					Kind: obs.KindStallScore, Op: blk.ops[sr.op].op, Bit: -1, Reg: sr.reg})
			}
			return false, nil
		}
	}
	// Structural stalls: Synchronization bit reuse, barriers, CCB space.
	// The per-op scan (which names the stalling op) runs only when the
	// instruction's bits meet a busy bit or its barrier meets live
	// speculation.
	if in.bits&s.syncBusy != 0 || in.barrier && (s.syncBusy != 0 || s.ccbHead < len(s.ccb)) {
		for _, idx := range in.ops {
			o := &blk.ops[idx]
			if o.bitMask != 0 && o.op.Code != ir.CheckLd && s.syncBusy&o.bitMask != 0 {
				s.StallSync++
				if s.tracing() {
					s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
						Kind: obs.KindStallSync, Op: o.op, Bit: o.op.SyncBit,
						Wait: o.bitMask, Busy: s.syncBusy})
				}
				return false, nil
			}
			if o.op.Code == ir.Call || o.op.Code == ir.Ret {
				if s.syncBusy != 0 || s.ccbHead < len(s.ccb) {
					s.StallBar++
					if s.tracing() {
						s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
							Kind: obs.KindStallBarrier, Op: o.op, Bit: -1, Busy: s.syncBusy})
					}
					return false, nil
				}
			}
		}
	}
	if in.spec > 0 && len(s.ccb)-s.ccbHead+in.spec > s.CCBCapacity {
		s.StallCCB++
		if s.tracing() {
			s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
				Kind: obs.KindStallCCB, Bit: -1})
		}
		return false, nil
	}

	if s.tracing() {
		s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW, Kind: obs.KindInstrIssue,
			Bit: -1, Func: fr.fn.f.Name, Block: fr.blockID, Instr: fr.instrIdx})
	}
	// Issue. Operations within one long instruction execute in program
	// order (the presorted issue list) so same-cycle anti-dependences
	// (reader packed with a later writer) read the old value.
	s.Instrs++
	var control *imgOp
	for _, idx := range in.sorted {
		o := &blk.ops[idx]
		s.Ops++
		if o.isControl {
			control = o // handled after data ops so same-cycle state is set
			continue
		}
		if err := s.issueDataOp(fr, blk, o); err != nil {
			return false, err
		}
	}
	fr.instrIdx++
	fr.fetched = false
	if control != nil {
		return s.issueControl(fr, blk, control)
	}
	return false, nil
}

// issueDataOp performs the VLIW-side execution of one non-control op.
func (s *Simulator) issueDataOp(fr *frame, blk *imgBlock, o *imgOp) error {
	op := o.op
	switch op.Code {
	case ir.LdPred:
		si := &fr.inst.sites[o.siteLocal]
		p := s.sitePredictor(op.PredID)
		v, _ := p.Predict() // cold predictors supply 0 (and mispredict)
		si.predicted = v
		// Confidence gate: an unconfident site's issue is suppressed. The
		// datapath is unchanged (same write, same Synchronization bit, so
		// the static schedule stays valid); only the check-time policy and
		// the accounting differ.
		si.suppressed = s.PredCfg.Gating() &&
			!s.conf[op.PredID].Confident(s.PredCfg.ConfThreshold)
		s.syncBusy |= o.bitMask
		if s.tracing() {
			kind := obs.KindLdPredIssue
			if si.suppressed {
				kind = obs.KindPredSuppress
			}
			s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
				Kind: kind, Op: op, Bit: op.SyncBit, Predicted: int64(v)})
		}
		s.writeReg(fr, op.Dest, v, o.lat)
		if si.suppressed {
			s.Suppressed++
		} else {
			s.Predictions++
		}
		return nil

	case ir.CheckLd:
		li := o.siteLocal
		si := &fr.inst.sites[li]
		addr := int64(fr.regs[op.A]) + op.Imm
		if addr < 1 || addr >= int64(len(s.mem.Mem)) {
			return fmt.Errorf("core: %s: check load address %d out of range", fr.fn.f.Name, addr)
		}
		actual := s.mem.Mem[addr]
		bit := blk.siteMask[li]
		lat := s.loadAccess(o.lat, o.ldSite, addr, true)
		seq := s.nextSeq(fr, op.Dest)
		if s.tracing() {
			s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
				Kind: obs.KindCheckIssue, Op: op, Bit: -1, Done: s.cycle + lat,
				Site: op.PredID, Correct: actual == si.predicted})
		}
		s.schedule(s.cycle+lat, wev{kind: wevCheckResolve, fr: fr, inst: fr.inst,
			op: op, li: li, reg: op.Dest, val: actual, seq: seq, mask: bit})
		fr.inst.pins++ // pinned by the pending-check list until swept
		s.pending = append(s.pending, pendingCheck{inst: fr.inst, li: int32(li)})
		fr.readyAt[op.Dest] = s.cycle + lat
		return nil

	default:
		if op.Speculative {
			return s.issueSpecOp(fr, blk, o)
		}
		// Non-speculative: operands are verified correct; execute with
		// architectural state and real fault semantics.
		lat := o.lat
		if op.Code == ir.Load && s.msys != nil {
			lat = s.loadAccess(o.lat, o.ldSite, int64(fr.regs[op.A])+op.Imm, true)
		}
		v, err := s.execValue(fr.fn.f, op, fr.regs)
		if err != nil {
			return fmt.Errorf("core: %s b%d %s: %w", fr.fn.f.Name, fr.blockID, op, err)
		}
		s.writePlain(fr, o.def, v, lat)
		return nil
	}
}

// issueSpecOp executes a speculative op with (possibly predicted) register
// values and buffers it in the CCB for verification-driven flush/re-execute.
func (s *Simulator) issueSpecOp(fr *frame, blk *imgBlock, o *imgOp) error {
	op := o.op
	inst := fr.inst

	// If every prediction this op consumes has already verified correct,
	// its operands are plain correct values: issue it as an ordinary op.
	if s.predsVerifiedCorrect(inst, o.predSet) {
		lat := o.lat
		if op.Code == ir.Load && s.msys != nil {
			lat = s.loadAccess(o.lat, o.ldSite, int64(fr.regs[op.A])+op.Imm, true)
		}
		v, err := s.execValue(fr.fn.f, op, fr.regs)
		if err != nil {
			return fmt.Errorf("core: %s: %w", op, err)
		}
		if s.tracing() {
			s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
				Kind: obs.KindPlainIssue, Op: op, Bit: -1})
		}
		s.writePlain(fr, op.Dest, v, lat)
		return nil
	}

	ei := inst.newEntry()
	e := &inst.entries[ei]
	e.op, e.opIdx, e.fr = op, o.idx, fr
	for k, u := range o.uses {
		ref := operandRef{kind: o.srcKinds[k], reg: u, value: fr.regs[u], siteLi: -1, srcIdx: -1}
		switch ref.kind {
		case srcLdPred:
			ref.siteLi = o.prodSite[k]
		case srcSpec:
			// The producer only has an entry if it was itself buffered (it
			// may have issued plain after its predictions verified).
			if x := inst.entryOf[o.producers[k]]; x != 0 {
				ref.srcIdx = x - 1
			}
		}
		e.operands = append(e.operands, ref)
	}

	// Execute on the VLIW engine with current (predicted) values.
	// Speculative faults are deferred: a poison zero result stands in until
	// verification decides whether the fault was real. A speculative load
	// accesses the hierarchy with its (possibly mispredicted) address —
	// the cache model tolerates any address, it is tags only.
	lat := o.lat
	if op.Code == ir.Load && s.msys != nil {
		lat = s.loadAccess(o.lat, o.ldSite, int64(fr.regs[op.A])+op.Imm, true)
	}
	v, err := s.execValue(fr.fn.f, op, fr.regs)
	if err != nil {
		e.issueErr = err
		v = 0
	}
	s.syncBusy |= o.bitMask
	e.seq = s.nextSeq(fr, op.Dest)
	s.schedule(s.cycle+lat, wev{kind: wevWrite, fr: fr, reg: op.Dest, val: v, seq: e.seq})
	fr.readyAt[op.Dest] = s.cycle + lat

	inst.entryOf[o.idx] = ei + 1
	inst.live++
	s.ccb = append(s.ccb, ccbRef{inst: inst, idx: ei})
	live := len(s.ccb) - s.ccbHead
	if live > s.MaxCCBOccupancy {
		s.MaxCCBOccupancy = live
	}
	occ := bits.Len(uint(live - 1))
	if occ >= ccbOccBuckets {
		occ = ccbOccBuckets - 1
	}
	s.ccbOcc[occ]++
	if s.tracing() {
		s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
			Kind: obs.KindBufferCCB, Op: op, Bit: op.SyncBit,
			Operands: dynSiteStates(inst, o.predSet)})
	}
	return nil
}

// dynSiteStates renders the dynamic verification state of every prediction
// site a buffered op depends on, in the paper's notation: PN before the
// site's check resolves, then C or R (see DESIGN.md §8).
func dynSiteStates(inst *blockInst, set uint32) []obs.SiteState {
	var out []obs.SiteState
	for li := range inst.sites {
		if set&(1<<uint(li)) == 0 {
			continue
		}
		si := &inst.sites[li]
		state := obs.StatePN
		if si.resolved {
			if si.correct {
				state = obs.StateC
			} else {
				state = obs.StateR
			}
		}
		out = append(out, obs.SiteState{Site: li, State: state})
	}
	return out
}

// issueControl handles branches, calls, and returns (issued after the data
// ops of the same long instruction).
func (s *Simulator) issueControl(fr *frame, blk *imgBlock, o *imgOp) (bool, error) {
	op := o.op
	if s.pf != nil && (op.Code == ir.Call || op.Code == ir.Ret) {
		// Call/return barrier: the machine drains speculation here and the
		// working set changes — every prefetch stream retrains.
		s.pf.barrier()
	}
	switch op.Code {
	case ir.Jmp:
		s.enterBlock(fr, blk.succs[0])
		return false, nil
	case ir.Br:
		taken := fr.regs[op.A] != 0
		if s.Control.Dynamic() {
			pc := branchPC(fr.fn.f.Name, fr.blockID)
			pred := s.bp.Predict(pc)
			s.BranchPredicts++
			if pred != taken {
				s.BranchMispredicts++
				if s.tracing() {
					var p int64
					if pred {
						p = 1
					}
					s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
						Kind: obs.KindBranchMispredict, Bit: -1,
						Func: fr.fn.f.Name, Block: fr.blockID, Predicted: p})
				}
				// The wrong-path flush discards every in-flight value
				// prediction — the pending checks live in earlier blocks'
				// pinned instances, not the branch's own — and stalls
				// fetch for FlushLat.
				if !s.FaultBranchFlushElide {
					s.flushInFlight()
				}
				if until := s.cycle + int64(s.Control.FlushLat()); until > s.redirectUntil {
					s.redirectUntil = until
				}
			} else if taken {
				// Correctly predicted taken branch: the fetch-redirect
				// bubble still costs RedirectLat.
				if until := s.cycle + int64(s.Control.RedirectLat()); until > s.redirectUntil {
					s.redirectUntil = until
				}
			}
			s.bp.Update(pc, taken)
		}
		if taken {
			s.enterBlock(fr, blk.succs[0])
		} else {
			s.enterBlock(fr, blk.succs[1])
		}
		return false, nil
	case ir.Call:
		return false, s.issueCall(fr, op)
	case ir.Ret:
		var v uint64
		if op.A != ir.NoReg {
			v = fr.regs[op.A]
		}
		fr.returned = true
		fr.retVal = v
		return s.popFrame(fr)
	}
	return false, fmt.Errorf("core: unexpected control op %s", op)
}

// flushInFlight discards the machine's in-flight speculation on a
// mispredicted branch. Two populations go:
//
// Unresolved prediction sites (the pending-check list) are marked
// branch-flushed: their checks are still in the event wheel (which pins
// their instances), and each takes the repair path when it resolves.
// The Synchronization-register discipline drains most speculation before
// any control transfer, so this set is usually empty — it is the safety
// net for sites whose checks outlive their block.
//
// Verified compensation-buffer entries are squashed wholesale: the CCE
// would dispatch each as a one-cycle no-op flush, but the wrong-path
// flush discards that queued bookkeeping with the rest of the pipeline.
// Only the verified-correct head run retires early; an unresolved or
// mispredicted entry stops the sweep, since repairs must still execute.
//
// Both halves are conservative by construction — a flushed-correct site
// re-executes its dependents to identical values, and a squashed entry
// was a no-op — so the flush changes timing and accounting, never
// architectural state.
func (s *Simulator) flushInFlight() {
	for i := s.pendingHead; i < len(s.pending); i++ {
		pc := s.pending[i]
		si := &pc.inst.sites[pc.li]
		if si.resolved || si.flushed {
			continue
		}
		si.flushed = true
		s.BranchFlushed++
		if s.tracing() {
			s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
				Kind: obs.KindBranchFlush, Bit: -1, Site: pc.inst.blk.an.Sites[pc.li].PredID})
		}
	}
	for s.ccbHead < len(s.ccb) {
		r := s.ccb[s.ccbHead]
		e := &r.inst.entries[r.idx]
		if !s.predsVerifiedCorrect(r.inst, r.inst.blk.ops[e.opIdx].predSet) {
			break
		}
		// A deferred speculative fault on an all-correct path is a real
		// fault, exactly as on the CCE flush path.
		if e.issueErr != nil {
			s.simErr = fmt.Errorf("core: %s: %w", e.op, e.issueErr)
		}
		if s.tracing() {
			s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineCCE,
				Kind: obs.KindBranchFlush, Op: e.op, Bit: -1})
		}
		if !e.bitCleared {
			e.bitCleared = true
			s.schedule(s.cycle+1, wev{kind: wevClearBits, mask: r.inst.blk.ops[e.opIdx].bitMask})
		}
		s.BranchFlushed++
		s.BranchSquashed++
		s.retireHead(r.inst)
	}
	s.compactCCB()
}

// branchPC derives a stable, process-independent PC for the conditional
// branch terminating block blockID of fnName: an FNV-1a fold of the name
// and block ID. Both engines use it, so the shared BranchPredictor sees
// identical indices, and it allocates nothing.
func branchPC(fnName string, blockID int) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(fnName); i++ {
		h ^= uint64(fnName[i])
		h *= 1099511628211
	}
	h ^= uint64(blockID)
	h *= 1099511628211
	return h
}

func (s *Simulator) enterBlock(fr *frame, next int) {
	if bi := fr.inst; bi != nil {
		fr.inst = nil
		bi.active = false
		s.maybeReleaseInst(bi)
	}
	fr.blockID = next
	fr.instrIdx = 0
	fr.fetched = false
}

func (s *Simulator) issueCall(fr *frame, op *ir.Op) error {
	switch op.Sym {
	case "print":
		s.mem.Output = append(s.mem.Output, strconv.FormatInt(int64(fr.regs[op.Args[0]]), 10))
		return nil
	case "fprint":
		v := math.Float64frombits(fr.regs[op.Args[0]])
		s.mem.Output = append(s.mem.Output, strconv.FormatFloat(v, 'g', -1, 64))
		return nil
	}
	callee := s.img.funcs[op.Sym]
	if callee == nil {
		return fmt.Errorf("core: call to unknown %q", op.Sym)
	}
	if s.callDepth > maxSimCallDepth {
		return fmt.Errorf("core: call depth exceeded at %q", op.Sym)
	}
	s.callDepth++
	nf := s.acquireFrame(callee, op.Dest)
	for i, a := range op.Args {
		nf.regs[i] = fr.regs[a]
	}
	s.stack = append(s.stack, nf)
	return nil
}

// popFrame retires a returned frame, delivering the return value.
func (s *Simulator) popFrame(fr *frame) (bool, error) {
	if len(s.stack) == 1 {
		return true, nil // root function returned
	}
	s.stack = s.stack[:len(s.stack)-1]
	s.callDepth--
	caller := s.stack[len(s.stack)-1]
	if fr.retDest != ir.NoReg {
		s.writeReg(caller, fr.retDest, fr.retVal, 1)
	}
	if bi := fr.inst; bi != nil {
		fr.inst = nil
		bi.active = false
		s.maybeReleaseInst(bi)
	}
	fr.dead = true
	s.maybeReleaseFrame(fr)
	return false, nil
}

// drainResolvedSerial retires buffered speculative entries in the serial
// recovery machine: once every prediction an entry depends on is verified,
// the entry is either discarded (all correct) or architecturally
// re-executed immediately — the recovery block's serial execution time was
// already charged as a stall when the misprediction was detected.
func (s *Simulator) drainResolvedSerial() {
	for s.ccbHead < len(s.ccb) {
		r := s.ccb[s.ccbHead]
		e := &r.inst.entries[r.idx]
		need := r.inst.blk.ops[e.opIdx].predSet
		wrong := false
		resolved := true
		for li := range r.inst.sites {
			if need&(1<<uint(li)) == 0 {
				continue
			}
			si := &r.inst.sites[li]
			if !si.resolved {
				resolved = false
				break
			}
			if !si.correct {
				wrong = true
			}
		}
		if !resolved {
			return
		}
		bit := r.inst.blk.ops[e.opIdx].bitMask
		if wrong {
			for i := range e.operands {
				ref := &e.operands[i]
				s.scratch[ref.reg] = correctedValue(r.inst, ref)
			}
			v, err := s.execValue(e.fr.fn.f, e.op, s.scratch)
			if err != nil {
				s.simErr = fmt.Errorf("core: serial recovery of %s: %w", e.op, err)
				return
			}
			v ^= s.FaultCCEWritebackXor
			e.recomputed = true
			e.newValue = v
			e.doneAt = s.cycle
			if s.tracing() {
				s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineCCE,
					Kind: obs.KindCCEExecute, Op: e.op, Bit: e.op.SyncBit, Done: e.doneAt})
			}
			// Re-issue under a fresh sequence number: the recovery block's
			// write supersedes the original operation's still-in-flight
			// predicted-path writeback.
			seq := s.nextSeq(e.fr, e.op.Dest)
			s.applyWrite(e.fr, e.op.Dest, v, seq)
			s.CCEExecuted++
		} else {
			if e.issueErr != nil {
				s.simErr = fmt.Errorf("core: %s: %w", e.op, e.issueErr)
				return
			}
			if s.tracing() {
				s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineCCE,
					Kind: obs.KindCCEFlush, Op: e.op, Bit: -1})
			}
			s.CCEFlushed++
		}
		if !e.bitCleared {
			e.bitCleared = true
			s.syncBusy &^= bit
		}
		s.retireHead(r.inst)
	}
	s.compactCCB()
}

// retireHead advances past the CCB head entry and lets its owning
// instance return to the pool once nothing references it.
func (s *Simulator) retireHead(inst *blockInst) {
	s.ccbHead++
	inst.live--
	s.maybeReleaseInst(inst)
}

// stepCCE dispatches at most one Compensation Code Buffer entry per cycle.
func (s *Simulator) stepCCE() {
	if s.SerialRecovery {
		// No second engine in the [4] baseline machine: entries retire
		// inline as soon as their predictions are all verified (their cost
		// was charged as a recovery stall at misprediction time).
		s.drainResolvedSerial()
		return
	}
	if s.ccbHead >= len(s.ccb) {
		return
	}
	r := s.ccb[s.ccbHead]
	e := &r.inst.entries[r.idx]
	// All involved predictions must be verified.
	need := r.inst.blk.ops[e.opIdx].predSet
	wrong := false
	for li := range r.inst.sites {
		if need&(1<<uint(li)) == 0 {
			continue
		}
		si := &r.inst.sites[li]
		if !si.resolved {
			return // stall
		}
		if !si.correct {
			wrong = true
		}
	}

	defer s.compactCCB()
	bit := r.inst.blk.ops[e.opIdx].bitMask
	if !wrong {
		// Flush: the VLIW-computed value was correct. A deferred
		// speculative fault on an all-correct path is a real fault.
		if e.issueErr != nil {
			s.simErr = fmt.Errorf("core: %s: %w", e.op, e.issueErr)
		}
		if s.tracing() {
			s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineCCE,
				Kind: obs.KindCCEFlush, Op: e.op, Bit: -1})
		}
		if !e.bitCleared {
			e.bitCleared = true
			s.schedule(s.cycle+1, wev{kind: wevClearBits, mask: bit})
		}
		s.CCEFlushed++
		s.retireHead(r.inst)
		return
	}
	// Re-execute with corrected operand values once they are available.
	for i := range e.operands {
		ref := &e.operands[i]
		if ref.kind == srcSpec && ref.srcIdx >= 0 {
			src := &r.inst.entries[ref.srcIdx]
			if src.recomputed && src.doneAt > s.cycle {
				return // corrected producer value still in the pipeline
			}
		}
	}
	for i := range e.operands {
		ref := &e.operands[i]
		s.scratch[ref.reg] = correctedValue(r.inst, ref)
	}
	// A re-executed load accesses the hierarchy with its corrected
	// address (before execValue, which may overwrite scratch[A] when the
	// destination aliases a source). It does not train the prefetcher.
	lat := r.inst.blk.ops[e.opIdx].lat
	if e.op.Code == ir.Load && s.msys != nil {
		lat = s.loadAccess(lat, -1, int64(s.scratch[e.op.A])+e.op.Imm, false)
	}
	v, err := s.execValue(e.fr.fn.f, e.op, s.scratch)
	if err != nil {
		// Correct operands and still faulting: a real fault.
		s.simErr = fmt.Errorf("core: compensation re-execution of %s: %w", e.op, err)
		return
	}
	v ^= s.FaultCCEWritebackXor
	e.recomputed = true
	e.newValue = v
	e.doneAt = s.cycle + lat
	if s.tracing() {
		s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineCCE,
			Kind: obs.KindCCEExecute, Op: e.op, Bit: e.op.SyncBit, Done: e.doneAt})
	}
	mask := uint64(0)
	if !e.bitCleared {
		mask = bit
	}
	e.bitCleared = true
	s.schedule(e.doneAt, wev{kind: wevCCEWriteback, fr: e.fr, reg: e.op.Dest,
		val: v, seq: e.seq, mask: mask})
	s.CCEExecuted++
	s.retireHead(r.inst)
}

// predsVerifiedCorrect reports whether every site in the local predset has
// resolved as a correct prediction.
func (s *Simulator) predsVerifiedCorrect(inst *blockInst, set uint32) bool {
	for li := range inst.sites {
		if set&(1<<uint(li)) == 0 {
			continue
		}
		si := &inst.sites[li]
		if !si.resolved || !si.correct {
			return false
		}
	}
	return true
}

// clearVerifiedBits clears the Synchronization bits of buffered speculative
// ops whose every involved prediction has verified correct — the run-time
// effect of the check-prediction ClearBits encoding, generalized to
// multi-prediction dependents (cleared when the last involved check
// verifies).
func (s *Simulator) clearVerifiedBits() {
	for i := s.ccbHead; i < len(s.ccb); i++ {
		r := s.ccb[i]
		e := &r.inst.entries[r.idx]
		o := &r.inst.blk.ops[e.opIdx]
		if e.bitCleared || o.bitMask == 0 {
			continue
		}
		if s.predsVerifiedCorrect(r.inst, o.predSet) {
			s.syncBusy &^= o.bitMask
			e.bitCleared = true
		}
	}
}

// compactCCB reclaims retired entries occasionally (in place: the backing
// array is reused, so the steady state allocates nothing).
func (s *Simulator) compactCCB() {
	if s.ccbHead > 256 && s.ccbHead*2 > len(s.ccb) {
		n := copy(s.ccb, s.ccb[s.ccbHead:])
		s.ccb = s.ccb[:n]
		s.ccbHead = 0
	}
}

// correctedValue resolves an operand through the Operand Value Buffer
// semantics: predicted values are replaced by their verified values,
// speculatively computed values by their recomputed ones.
func correctedValue(inst *blockInst, r *operandRef) uint64 {
	switch r.kind {
	case srcLdPred:
		si := &inst.sites[r.siteLi]
		if si.resolved {
			return si.actual
		}
		return r.value
	case srcSpec:
		if r.srcIdx >= 0 {
			src := &inst.entries[r.srcIdx]
			if src.recomputed {
				return src.newValue
			}
		}
		return r.value
	default:
		return r.value
	}
}

// execValue runs one operation's semantics against the given register file
// and returns the destination value (0 for ops without one).
func (s *Simulator) execValue(f *ir.Func, op *ir.Op, regs []uint64) (uint64, error) {
	if err := s.mem.ExecOp(f, op, regs); err != nil {
		return 0, err
	}
	if d := op.Def(); d != ir.NoReg {
		return regs[d], nil
	}
	return 0, nil
}

// writeReg schedules a register write that lands lat cycles after issue.
func (s *Simulator) writeReg(fr *frame, r ir.Reg, v uint64, lat int64) {
	if r == ir.NoReg {
		return
	}
	seq := s.nextSeq(fr, r)
	s.schedule(s.cycle+lat, wev{kind: wevWrite, fr: fr, reg: r, val: v, seq: seq})
	fr.readyAt[r] = s.cycle + lat
}

// writePlain lands the result of an op issued plain (non-speculative, or
// speculative with every prediction verified). execValue already stored v
// in fr.regs, readers stall until readyAt, and the sequence claimed here
// suppresses every older write to r, so the landing event could never
// change a register: an untraced run only raises the drain horizon. A
// traced run keeps the event, so its reg.write stream is unchanged.
func (s *Simulator) writePlain(fr *frame, r ir.Reg, v uint64, lat int64) {
	if r == ir.NoReg || s.tracing() {
		s.writeReg(fr, r, v, lat)
		return
	}
	s.nextSeq(fr, r)
	at := s.cycle + lat
	fr.readyAt[r] = at
	if at > s.drainAt {
		s.drainAt = at
	}
}

func (s *Simulator) nextSeq(fr *frame, r ir.Reg) int64 {
	s.seq++
	if r != ir.NoReg {
		fr.lastSeq[r] = s.seq
	}
	return s.seq
}

// applyWrite commits a register value unless a newer writer has claimed the
// register (the write-port arbitration that keeps late compensation
// write-backs from clobbering younger definitions).
func (s *Simulator) applyWrite(fr *frame, r ir.Reg, v uint64, seq int64) {
	if r == ir.NoReg {
		return
	}
	if fr.lastSeq[r] != seq {
		if s.tracing() {
			s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
				Kind: obs.KindRegWriteSuppressed, Bit: -1, Reg: r,
				Value: int64(v), Seq: seq, LastSeq: fr.lastSeq[r]})
		}
		return
	}
	if s.tracing() {
		s.Sink.Event(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
			Kind: obs.KindRegWrite, Bit: -1, Reg: r, Value: int64(v), Seq: seq})
	}
	fr.regs[r] = v
}

// sitePredictor resolves (or lazily builds) the predictor of a site for
// the current run. Default-scheme predictors are recycled across runs via
// Reset — a reset predictor is indistinguishable from a cold one — while
// the NewPredictor hook, when set, is honored once per site per run.
func (s *Simulator) sitePredictor(predID int) predict.Predictor {
	if s.predRun[predID] == s.runEpoch {
		return s.preds[predID]
	}
	var p predict.Predictor
	custom := false
	scheme := s.Schemes[predID]
	if s.NewPredictor != nil {
		p = s.NewPredictor(predID)
		custom = p != nil
	}
	if p == nil {
		// Recycle the previous run's predictor when it was built by the
		// same default scheme: Reset restores the freshly-constructed state
		// (pinned by the predictor tests), so reuse is unobservable.
		if old := s.preds[predID]; old != nil && !s.predCustom[predID] && s.predScheme[predID] == scheme {
			old.Reset()
			p = old
		} else {
			switch scheme {
			case profile.SchemeFCM:
				p = predict.NewFCM(s.PredCfg.Order(), s.PredCfg.TableBits())
			case profile.SchemeLast:
				p = predict.NewLastValue()
			case profile.SchemeLNV:
				p = predict.NewLastN(s.PredCfg.Depth())
			case profile.SchemeHybrid:
				p = predict.NewHybrid(s.PredCfg.Order(), s.PredCfg.TableBits())
			case profile.SchemeVTAGE:
				// All VTAGE sites of a run share one tagged table — the
				// hardware structure — built lazily at first use and reset
				// once per run in reset().
				if s.vtage == nil {
					s.vtage = predict.NewVTAGE(s.PredCfg.TagTableBits())
				}
				p = s.vtage.Site(predID)
			default:
				p = predict.NewStride()
			}
		}
	}
	s.preds[predID] = p
	s.predRun[predID] = s.runEpoch
	s.predCustom[predID] = custom
	s.predScheme[predID] = scheme
	return p
}

// Memory returns the simulator's memory image (for state validation).
func (s *Simulator) Memory() []uint64 { return s.mem.Mem }
