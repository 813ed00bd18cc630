// Package speculate implements the compiler half of the paper: selecting
// predictable loads on each block's critical path, rewriting the block with
// LdPred and check-prediction operation forms, marking speculative and
// non-speculative forms, and statically allocating Synchronization-register
// bits and per-instruction wait masks (§2.1 of the paper).
//
// The transformed block layout is:
//
//	LdPred ops (one per selected load, no input dependences, issue early)
//	original operations, selected loads removed, dependents marked
//	  speculative where safe
//	CheckLd placed at the latest memory-safe point (before the first
//	  store/call that followed the original load, so the re-executed load
//	  observes the same memory version)
//	terminator (waits on live-out speculated values)
//
// Consumers between a LdPred and its CheckLd read the predicted register
// value; consumers after the CheckLd read the verified value and need no
// synchronization.
package speculate

import (
	"fmt"
	"sort"

	"vliwvp/internal/ddg"
	"vliwvp/internal/ir"
	"vliwvp/internal/machine"
	"vliwvp/internal/predict"
	"vliwvp/internal/profile"
)

// Config controls load selection and transformation.
type Config struct {
	// Threshold is the minimum profiled prediction rate for a load to be
	// selected. The paper uses 0.65.
	Threshold float64
	// MaxPredsPerBlock caps LdPred sites per block (outcome masks use one
	// bit per site).
	MaxPredsPerBlock int
	// MaxSyncBits caps Synchronization-register bits allocated per block.
	MaxSyncBits int
	// Machine supplies operation latencies for critical-path analysis.
	Machine *machine.Desc
	// DDG configures dependence construction.
	DDG ddg.Options
	// CriticalOnly restricts selection to loads on (or within Slack cycles
	// of) the longest critical path — the paper's policy. When false, any
	// sufficiently predictable load with in-block dependents qualifies.
	CriticalOnly bool
	// Slack widens the critical-path test: a load qualifies when its
	// longest path through the block is within Slack cycles of the block's
	// critical length, or when its dependent chain alone spans at least
	// half of it (a deep chain is worth compressing even slightly off the
	// single longest path).
	Slack int
	// MinCount ignores loads executed fewer times in the profile (noise).
	MinCount int64
	// Predictor selects the value-prediction scheme per site. Nil (or
	// scheme "profiled") keeps the paper's policy: each site gets the
	// better of stride and FCM from the profile. Scheme "auto" takes the
	// zoo-wide profiled argmax per site; any other stock scheme forces
	// that family on every site, gated by its own profiled rate against
	// Threshold. The config also carries the runtime confidence-gating
	// parameters the engine consumes.
	Predictor *predict.Config
	// Control carries the control-speculation configuration (taken-branch
	// penalty, redirect/flush latencies, optional dynamic branch predictor)
	// through to the engines. The transform itself does not consult it; it
	// rides the config so one value parameterizes compile and simulate, and
	// so cache fingerprints distinguish control variants.
	Control machine.ControlConfig
}

// siteRate applies the configured scheme policy to one profiled load,
// returning the rate that competes against Threshold and the scheme the
// site would run with.
func siteRate(lp *profile.LoadProfile, cfg *Config) (float64, profile.Scheme) {
	switch cfg.Predictor.SchemeName() {
	case "profiled":
		return lp.Rate(), lp.Best()
	case "auto":
		s, r := lp.ZooBest()
		return r, s
	default:
		s, _ := profile.SchemeByName(cfg.Predictor.SchemeName())
		return lp.RateOf(s), s
	}
}

// UnmeteredError reports a predictor config that reads the rate of a
// family the value profile did not meter. Selecting on an unmetered rate
// would read its zero and silently select no site, so Transform refuses;
// seeing this error means a profile was collected (or cached) for a
// different predictor config than the one it is used with.
type UnmeteredError struct {
	Predictor string         // the config's canonical key
	Need      profile.Meters // the families the config reads
	Have      profile.Meters // the families the profile metered
}

func (e *UnmeteredError) Error() string {
	return fmt.Sprintf("speculate: predictor %q reads %s rates, but the profile meters only %s",
		e.Predictor, e.Need, e.Have)
}

// DefaultConfig returns the paper's experimental settings on the given
// machine.
func DefaultConfig(d *machine.Desc) Config {
	return Config{
		Threshold:        0.65,
		MaxPredsPerBlock: 4,
		MaxSyncBits:      64,
		Machine:          d,
		CriticalOnly:     true,
		Slack:            6,
		MinCount:         4,
	}
}

// Site is one static prediction site (a selected load).
type Site struct {
	ID        int // global prediction-site ID (Op.PredID)
	Func      string
	Block     int
	LoadOpID  int // original load's op ID (preserved on the CheckLd)
	LdPredID  int // op ID of the inserted LdPred
	Scheme    profile.Scheme
	Rate      float64
	SyncBit   int
	ClearBits uint64
}

// BlockInfo summarizes the transformation of one block.
type BlockInfo struct {
	Key profile.BlockKey
	// SiteIDs lists this block's prediction sites in ascending original
	// load op-ID order — the same order profile.Outcomes masks use.
	SiteIDs []int
	// SpecOpIDs lists ops marked speculative.
	SpecOpIDs []int
	// BitsUsed is the set of Synchronization-register bits the block sets.
	BitsUsed uint64
}

// Result is the outcome of the speculation pass.
type Result struct {
	// Prog is the transformed program (a clone; the input is untouched).
	Prog *ir.Program
	// Sites indexes prediction sites by ID.
	Sites []*Site
	// Blocks maps transformed blocks to their metadata.
	Blocks map[profile.BlockKey]*BlockInfo
	// Selection feeds profile.CollectOutcomes (original op IDs).
	Selection *profile.Selection
}

// Transform applies the speculation pass to every block of every function.
func Transform(prog *ir.Program, prof *profile.Profile, cfg Config) (*Result, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("speculate: Config.Machine is required")
	}
	if err := cfg.Predictor.Validate(); err != nil {
		return nil, fmt.Errorf("speculate: %w", err)
	}
	if need := profile.MetersFor(cfg.Predictor); !prof.Meters.Covers(need) {
		return nil, &UnmeteredError{Predictor: cfg.Predictor.Key(), Need: need, Have: prof.Meters}
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 0.65
	}
	if cfg.MaxPredsPerBlock <= 0 {
		cfg.MaxPredsPerBlock = 4
	}
	if cfg.MaxPredsPerBlock > 30 {
		cfg.MaxPredsPerBlock = 30 // outcome masks are uint32
	}
	if cfg.MaxSyncBits <= 0 || cfg.MaxSyncBits > 64 {
		cfg.MaxSyncBits = 64
	}

	res := &Result{
		Prog:      prog.Clone(),
		Blocks:    map[profile.BlockKey]*BlockInfo{},
		Selection: profile.NewSelection(),
	}
	for _, f := range res.Prog.Funcs {
		lv := ddg.ComputeLiveness(f)
		for _, b := range f.Blocks {
			if err := transformBlock(res, f, b, lv, prof, cfg); err != nil {
				return nil, fmt.Errorf("speculate: %s b%d: %w", f.Name, b.ID, err)
			}
		}
	}
	return res, nil
}

// candidate is a load considered for prediction.
type candidate struct {
	node   int
	op     *ir.Op
	rate   float64
	scheme profile.Scheme
	height int
}

func transformBlock(res *Result, f *ir.Func, b *ir.Block, lv *ddg.Liveness,
	prof *profile.Profile, cfg Config) error {

	lat := cfg.Machine.Latency
	g := ddg.Build(b, lat, cfg.DDG)

	cands := selectCandidates(f, b, g, prof, cfg)
	if len(cands) == 0 {
		return nil
	}

	// Reject candidates that are transitive dependents of a selected one:
	// check-prediction operands must never themselves be predicted.
	var chosen []candidate
	taken := map[int]bool{}
	for _, c := range cands {
		if len(chosen) >= cfg.MaxPredsPerBlock {
			break
		}
		dependent := false
		for sel := range taken {
			if g.TransitiveDependents([]int{sel})[c.node] {
				dependent = true
				break
			}
		}
		if dependent {
			continue
		}
		// Also reject a candidate the already-chosen ones depend on.
		deps := g.TransitiveDependents([]int{c.node})
		for sel := range taken {
			if deps[sel] {
				dependent = true
				break
			}
		}
		if dependent {
			continue
		}
		taken[c.node] = true
		chosen = append(chosen, c)
	}
	if len(chosen) == 0 {
		return nil
	}
	// chosen stays in priority (height) order through planning so that bit
	// pressure sheds the least valuable site first; the commit below sorts
	// the survivors into mask-bit order (ascending original op ID).

	// Plan placements before committing to anything. Deadlock-freedom of
	// the in-order dual-engine machine requires that EVERY check-prediction
	// op precede EVERY waiter (an op whose wait mask can stall the VLIW
	// Engine) in program order: a stalled waiter blocks all later issues,
	// including any check that would have cleared its bits — and a blocked
	// check can in turn wedge the in-order Compensation Code Engine behind
	// an unresolved entry. So every check position is capped at the block's
	// first waiter, and a site whose speculative window collapses under the
	// cap is dropped.
	type sitePlan struct {
		cand     candidate
		specSet  map[int]bool
		checkPos int
	}
	var plans []*sitePlan
	for _, c := range chosen {
		plans = append(plans, &sitePlan{
			cand:     c,
			specSet:  map[int]bool{},
			checkPos: checkPlacement(b, c.node),
		})
	}
	for iter := 0; ; iter++ {
		if iter > 4*len(b.Ops)+8 {
			return fmt.Errorf("check-placement planning did not converge")
		}
		for _, p := range plans {
			for n := range p.specSet {
				delete(p.specSet, n)
			}
			markSpeculative(g, p.cand.node, p.checkPos, p.specSet)
		}
		firstWaiter := len(b.Ops)
		for _, p := range plans {
			if m := firstNonSpecConsumer(b, p.cand.node, p.specSet, p.checkPos); m < firstWaiter {
				firstWaiter = m
			}
		}
		changed := false
		kept := plans[:0]
		for _, p := range plans {
			pos := p.checkPos
			if firstWaiter < pos {
				pos = firstWaiter
			}
			if pos <= p.cand.node {
				changed = true // dropping a site changes the waiter set
				continue
			}
			if pos != p.checkPos {
				p.checkPos = pos
				changed = true
			}
			kept = append(kept, p)
		}
		plans = kept
		// Synchronization-bit demand: one bit per site plus one per
		// speculative op (shared dependents counted once). If the budget
		// is exceeded, shed the lowest-priority site and re-plan — bits
		// cannot be taken from individual speculative ops later, because
		// un-speculating an op after placement would put a waiter in
		// front of the checks and re-open the deadlock window.
		if len(plans) > 0 {
			union := map[int]bool{}
			for _, p := range plans {
				for n := range p.specSet {
					union[n] = true
				}
			}
			if len(plans)+len(union) > cfg.MaxSyncBits {
				plans = plans[:len(plans)-1]
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	if len(plans) == 0 {
		return nil
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].cand.op.ID < plans[j].cand.op.ID })

	// Commit: register sites and allocate Synchronization bits.
	bk := profile.BlockKey{Func: f.Name, Block: b.ID}
	info := &BlockInfo{Key: bk}
	nextBit := 0
	allocBit := func() (int, bool) {
		if nextBit >= cfg.MaxSyncBits {
			return 0, false
		}
		bit := nextBit
		nextBit++
		info.BitsUsed |= 1 << uint(bit)
		return bit, true
	}

	type siteWork struct {
		cand    candidate
		site    *Site
		specSet map[int]bool // node indices speculated for this site
	}
	var work []*siteWork
	checkPos := make([]int, 0, len(plans))
	for _, p := range plans {
		bit, ok := allocBit()
		if !ok {
			return fmt.Errorf("site bits exhausted after planning (budget %d)", cfg.MaxSyncBits)
		}
		site := &Site{
			ID:       len(res.Sites),
			Func:     f.Name,
			Block:    b.ID,
			LoadOpID: p.cand.op.ID,
			Scheme:   p.cand.scheme,
			Rate:     p.cand.rate,
			SyncBit:  bit,
		}
		res.Sites = append(res.Sites, site)
		res.Selection.Add(f.Name, b.ID, p.cand.op.ID, p.cand.scheme)
		info.SiteIDs = append(info.SiteIDs, site.ID)
		work = append(work, &siteWork{cand: p.cand, site: site, specSet: p.specSet})
		checkPos = append(checkPos, p.checkPos)
	}
	if len(work) == 0 {
		return nil
	}

	// specPredSets[node] = bitset over work indices whose prediction the
	// node's value transitively consumes.
	specPredSets := map[int]uint32{}
	for wi, w := range work {
		for n := range w.specSet {
			specPredSets[n] |= 1 << uint(wi)
		}
	}

	// Allocate sync bits for speculative ops. The planning loop already
	// shed sites until demand fits the budget, so exhaustion here means a
	// bookkeeping bug, not an input condition.
	specBit := map[int]int{} // node -> sync bit
	order := make([]int, 0, len(specPredSets))
	for n := range specPredSets {
		order = append(order, n)
	}
	sort.Ints(order)
	for _, n := range order {
		bit, ok := allocBit()
		if !ok {
			return fmt.Errorf("synchronization bits exhausted after planning (budget %d)", cfg.MaxSyncBits)
		}
		specBit[n] = bit
	}

	// ClearBits per site: bits of spec ops depending solely on that site.
	for wi, w := range work {
		for n, set := range specPredSets {
			if set == 1<<uint(wi) {
				w.site.ClearBits |= 1 << uint(specBit[n])
			}
		}
	}

	// ---- Rewrite the block ----
	oldOps := b.Ops
	specByOp := map[*ir.Op]int{} // original op -> sync bit
	for n, bit := range specBit {
		specByOp[g.Nodes[n].Op] = bit
	}

	// Build LdPred ops.
	var newOps []*ir.Op
	for _, w := range work {
		lp := f.NewOp(ir.LdPred)
		lp.Dest = w.cand.op.Dest
		lp.PredID = w.site.ID
		lp.SyncBit = w.site.SyncBit
		w.site.LdPredID = lp.ID
		newOps = append(newOps, lp)
	}

	// Copy body, dropping selected loads, inserting CheckLds at their
	// placement points, and marking speculative forms.
	checkAt := map[int][]*siteWork{} // original node index -> checks to insert before it
	for wi, w := range work {
		checkAt[checkPos[wi]] = append(checkAt[checkPos[wi]], w)
	}
	isSelected := map[*ir.Op]bool{}
	for _, w := range work {
		isSelected[w.cand.op] = true
	}

	for n, op := range oldOps {
		for _, w := range checkAt[n] {
			chk := w.cand.op // reuse the original load op object (keeps its ID)
			chk.Code = ir.CheckLd
			chk.PredID = w.site.ID
			chk.ClearBits = w.site.ClearBits
			newOps = append(newOps, chk)
		}
		if isSelected[op] {
			continue // moved to its check position
		}
		if bit, ok := specByOp[op]; ok {
			op.Speculative = true
			op.SyncBit = bit
			info.SpecOpIDs = append(info.SpecOpIDs, op.ID)
		}
		newOps = append(newOps, op)
	}
	// Checks that belong at the very end (placement == len(oldOps)).
	for _, w := range checkAt[len(oldOps)] {
		chk := w.cand.op
		chk.Code = ir.CheckLd
		chk.PredID = w.site.ID
		chk.ClearBits = w.site.ClearBits
		newOps = append(newOps, chk)
	}
	// Keep the terminator last.
	newOps = moveTerminatorLast(newOps)
	b.Ops = newOps

	computeWaitBits(f, b, lv)
	res.Blocks[bk] = info
	return nil
}

// selectCandidates finds predictable loads worth speculating, ordered by
// descending dependence height (deepest chains first).
func selectCandidates(f *ir.Func, b *ir.Block, g *ddg.Graph,
	prof *profile.Profile, cfg Config) []candidate {

	var cands []candidate
	for i, node := range g.Nodes {
		op := node.Op
		if op.Code != ir.Load {
			continue
		}
		lp := prof.Load(f.Name, op.ID)
		if lp == nil || lp.Count < cfg.MinCount {
			continue
		}
		rate, scheme := siteRate(lp, &cfg)
		if rate < cfg.Threshold {
			continue
		}
		if cfg.CriticalOnly &&
			node.Depth+node.Height < g.CriticalLength-cfg.Slack &&
			node.Height*2 < g.CriticalLength {
			continue
		}
		if !eligible(b, g, i) {
			continue
		}
		cands = append(cands, candidate{
			node: i, op: op, rate: rate, scheme: scheme, height: node.Height,
		})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].height > cands[j].height })
	return cands
}

// eligible checks the structural preconditions for predicting the load at
// node i: its destination register must be written exactly once in the
// block (by the load), never read before the load, and the load must have
// at least one true dependent inside the block.
func eligible(b *ir.Block, g *ddg.Graph, i int) bool {
	op := b.Ops[i]
	dest := op.Dest
	if dest == ir.NoReg {
		return false
	}
	// A call preceding the load would stall (calls barrier on an empty
	// Synchronization register) while the hoisted LdPred's bit is set,
	// before the check could ever issue to clear it.
	for j := 0; j < i; j++ {
		if b.Ops[j].Code == ir.Call {
			return false
		}
	}
	for j, other := range b.Ops {
		if j == i {
			continue
		}
		if other.Def() == dest {
			return false // multiple writers of dest in block
		}
		if j < i {
			for _, u := range other.Uses() {
				if u == dest {
					return false // live-in value of dest read before the load
				}
			}
		}
	}
	hasDependent := false
	for _, e := range g.Nodes[i].Succs {
		if e.Kind == ddg.True {
			hasDependent = true
			break
		}
	}
	return hasDependent
}

// checkPlacement returns the node index before which the CheckLd must be
// inserted: the first store/call after the load (so the re-executed load
// reads the same memory version), or the terminator position.
func checkPlacement(b *ir.Block, loadNode int) int {
	for j := loadNode + 1; j < len(b.Ops); j++ {
		code := b.Ops[j].Code
		if code == ir.Store || code == ir.Call || code.IsTerminator() {
			return j
		}
	}
	return len(b.Ops)
}

// firstNonSpecConsumer returns the index of the earliest operation before
// bound that reads a value produced by the predicted load or its
// speculative set without itself being speculative, or bound if none.
func firstNonSpecConsumer(b *ir.Block, loadNode int, spec map[int]bool, bound int) int {
	predicted := map[ir.Reg]bool{}
	if d := b.Ops[loadNode].Def(); d != ir.NoReg {
		predicted[d] = true
	}
	for j := loadNode + 1; j < bound; j++ {
		if spec[j] {
			if d := b.Ops[j].Def(); d != ir.NoReg {
				predicted[d] = true
			}
			continue
		}
		for _, u := range b.Ops[j].Uses() {
			if predicted[u] {
				return j
			}
		}
		// A non-speculative redefinition stops the predicted value.
		if d := b.Ops[j].Def(); d != ir.NoReg {
			delete(predicted, d)
		}
	}
	return bound
}

// markSpeculative walks true-dependence edges from the load, marking pure
// ops positioned before the check placement as speculative, and stopping
// propagation at impure ops or ops at/after the check (those read verified
// values).
func markSpeculative(g *ddg.Graph, loadNode, checkPos int, spec map[int]bool) {
	stack := []int{loadNode}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Nodes[n].Succs {
			if e.Kind != ddg.True || spec[e.To] {
				continue
			}
			to := g.Nodes[e.To]
			if e.To >= checkPos {
				continue // reads the verified value
			}
			if !to.Op.Code.IsPure() || to.Op.Code == ir.Load {
				// Impure ops stay non-speculative (wait bits cover them).
				// Loads do too: re-executing a load in the Compensation
				// Code Engine could observe memory stores that program
				// order places after it, so a dependent load instead waits
				// for verification and reads the correct address once.
				continue
			}
			spec[e.To] = true
			stack = append(stack, e.To)
		}
	}
}

// escapesBlock reports whether the value written into r at position idx is
// still in r when the block exits and some successor block may read it.
// Uses inside the block are irrelevant here: in-block consumers carry their
// own wait bits or are speculative themselves.
func escapesBlock(b *ir.Block, idx int, r ir.Reg, lv *ddg.Liveness) bool {
	for i := idx + 1; i < len(b.Ops); i++ {
		if b.Ops[i].Def() == r {
			return false
		}
	}
	return lv.Out[b.ID][r]
}

// moveTerminatorLast restores the invariant that the terminator ends the
// block (check insertion at the terminator position would otherwise place
// the check after it).
func moveTerminatorLast(ops []*ir.Op) []*ir.Op {
	ti := -1
	for i, op := range ops {
		if op.Code.IsTerminator() {
			ti = i
			break
		}
	}
	if ti < 0 || ti == len(ops)-1 {
		return ops
	}
	term := ops[ti]
	out := append(ops[:ti:ti], ops[ti+1:]...)
	return append(out, term)
}

// computeWaitBits fills Op.WaitBits for every non-speculative operation:
// for each source operand, the Synchronization bit of the most recent
// in-block producer whose value is predicted (a LdPred or a speculative
// op). Terminators additionally wait on every speculated value that is
// live-out of the block, and calls/returns act as full barriers at run
// time (the engine enforces that; no static bits needed).
func computeWaitBits(f *ir.Func, b *ir.Block, lv *ddg.Liveness) {
	lastProducer := map[ir.Reg]*ir.Op{}
	for _, op := range b.Ops {
		op.WaitBits = 0
		if !op.Speculative && op.Code != ir.LdPred {
			for _, u := range op.Uses() {
				if p, ok := lastProducer[u]; ok && p.SyncBit != ir.NoBit {
					op.WaitBits |= 1 << uint(p.SyncBit)
				}
			}
		}
		if d := op.Def(); d != ir.NoReg {
			lastProducer[d] = op
		}
	}
	// Terminator waits for live-out speculated values.
	if term := b.Terminator(); term != nil {
		for idx, op := range b.Ops {
			if op.SyncBit == ir.NoBit || op.Code == ir.CheckLd {
				continue
			}
			d := op.Def()
			if d == ir.NoReg {
				continue
			}
			// The LdPred destination is always rewritten by its CheckLd, so
			// only speculative ops can leak live-out predicted values.
			if op.Code == ir.LdPred {
				continue
			}
			if escapesBlock(b, idx, d, lv) {
				term.WaitBits |= 1 << uint(op.SyncBit)
			}
		}
	}
}
