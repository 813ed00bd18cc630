// Package profile implements the two profiling passes of the paper's §3:
//
//  1. Value profiling of loads: each static load's dynamic value stream is
//     scored online against a stride predictor and an FCM predictor; its
//     predictability is the higher of the two rates. The run meters only
//     the families its Meters set names — the paper's pair, one forced
//     family beside stride, or the whole predictor zoo. Block execution
//     and edge frequencies are collected in the same run.
//  2. Outcome profiling: after the speculation pass has selected loads, a
//     second run replays the program and records, for every dynamic block
//     instance, exactly which selected predictions hit — tallied as a
//     per-block histogram over outcome bitmasks. The experiment drivers
//     combine these histograms with the dual-engine timing model to
//     estimate execution cycles, best cases ("all predictions correct"),
//     and worst cases ("all incorrect").
package profile

import (
	"fmt"
	"sort"

	"vliwvp/internal/interp"
	"vliwvp/internal/ir"
	"vliwvp/internal/predict"
)

// LoadKey names a static load site.
type LoadKey struct {
	Func string
	OpID int
}

// BlockKey names a static basic block.
type BlockKey struct {
	Func  string
	Block int
}

// EdgeKey names a CFG edge within one function.
type EdgeKey struct {
	Func     string
	From, To int
}

// Scheme names the predictor family chosen for a site.
type Scheme uint8

const (
	// SchemeStride selects the two-delta stride predictor.
	SchemeStride Scheme = iota
	// SchemeFCM selects the order-2 FCM predictor.
	SchemeFCM
	// SchemeLast selects the plain last-value predictor.
	SchemeLast
	// SchemeLNV selects the last-n-value (modal ring) predictor.
	SchemeLNV
	// SchemeVTAGE selects the tagged geometric-history context predictor
	// (a shared table; sites address it through views).
	SchemeVTAGE
	// SchemeHybrid selects the stride/FCM tournament predictor.
	SchemeHybrid
)

func (s Scheme) String() string {
	switch s {
	case SchemeFCM:
		return "fcm"
	case SchemeLast:
		return "last"
	case SchemeLNV:
		return "lnv"
	case SchemeVTAGE:
		return "vtage"
	case SchemeHybrid:
		return "hybrid"
	default:
		return "stride"
	}
}

// SchemeByName inverts Scheme.String for the forceable scheme names.
func SchemeByName(name string) (Scheme, bool) {
	switch name {
	case "stride":
		return SchemeStride, true
	case "fcm":
		return SchemeFCM, true
	case "last":
		return SchemeLast, true
	case "lnv":
		return SchemeLNV, true
	case "vtage":
		return SchemeVTAGE, true
	case "hybrid":
		return SchemeHybrid, true
	}
	return SchemeStride, false
}

// zooOrder fixes the tie-break order for zoo-wide argmax selection: the
// paper's two families first (so "auto" degenerates to the legacy choice
// when the new schemes don't strictly win), then the PR-8 additions.
var zooOrder = [...]Scheme{SchemeStride, SchemeFCM, SchemeHybrid, SchemeLast, SchemeLNV, SchemeVTAGE}

// Meters is the set of predictor families a value-profiling run scores,
// one bit (1<<Scheme) per family. The zero value stands for the whole zoo,
// so the zero pipeline profile pass and hand-built profiles keep meaning
// "every rate is filled in".
type Meters uint8

const (
	// ZooMeters is the whole zoo, written out.
	ZooMeters Meters = 1<<SchemeStride | 1<<SchemeFCM | 1<<SchemeLast |
		1<<SchemeLNV | 1<<SchemeVTAGE | 1<<SchemeHybrid
	// NoMeters meters no family: a frequency-only profile. It holds no
	// family bit but is not the zero value (which means the whole zoo).
	NoMeters Meters = 1 << 7
)

// MetersOf returns the set of the given schemes.
func MetersOf(schemes ...Scheme) Meters {
	var m Meters
	for _, s := range schemes {
		m |= 1 << s
	}
	return m
}

// MetersFor is the set of families a predictor config can read from a
// profile: stride and FCM for "profiled" (the paper's max of the two), the
// whole zoo for "auto", and stride plus the forced family otherwise.
// Profiling always meters stride, so the metered set of any config
// contains the paper's baseline family.
func MetersFor(cfg *predict.Config) Meters {
	switch name := cfg.SchemeName(); name {
	case "profiled":
		return MetersOf(SchemeStride, SchemeFCM)
	case "auto":
		return ZooMeters
	default:
		s, _ := SchemeByName(name)
		return MetersOf(SchemeStride, s)
	}
}

func (m Meters) full() Meters {
	if m == 0 {
		return ZooMeters
	}
	return m
}

// Has reports whether the set meters scheme s.
func (m Meters) Has(s Scheme) bool { return m.full()&(1<<s) != 0 }

// Covers reports whether every family of o is in m.
func (m Meters) Covers(o Meters) bool {
	need := o.full() &^ NoMeters
	return m.full()&need == need
}

// String renders the set canonically: "zoo" for the whole zoo, "none" for
// no family, otherwise the family names in zoo order joined by "+" (e.g.
// "stride+fcm"). Profile pass fingerprints embed it.
func (m Meters) String() string {
	if m.full() == ZooMeters {
		return "zoo"
	}
	out := "none"
	for _, s := range zooOrder {
		switch {
		case !m.Has(s):
		case out == "none":
			out = s.String()
		default:
			out += "+" + s.String()
		}
	}
	return out
}

// LoadProfile is the value profile of one static load site. Only the rates
// of the families its profile metered (Profile.Meters) are filled in; the
// others stay 0. Rate and Best deliberately keep the paper's stride/FCM
// semantics.
type LoadProfile struct {
	Key        LoadKey
	Count      int64
	StrideRate float64
	FCMRate    float64
	LastRate   float64
	LNVRate    float64
	VTAGERate  float64
	HybridRate float64
}

// Rate is the site's predictability: max(stride, FCM), per the paper.
func (lp *LoadProfile) Rate() float64 {
	if lp.FCMRate > lp.StrideRate {
		return lp.FCMRate
	}
	return lp.StrideRate
}

// Best is the predictor family achieving Rate.
func (lp *LoadProfile) Best() Scheme {
	if lp.FCMRate > lp.StrideRate {
		return SchemeFCM
	}
	return SchemeStride
}

// rate addresses the profiled rate of one scheme.
func (lp *LoadProfile) rate(s Scheme) *float64 {
	switch s {
	case SchemeFCM:
		return &lp.FCMRate
	case SchemeLast:
		return &lp.LastRate
	case SchemeLNV:
		return &lp.LNVRate
	case SchemeVTAGE:
		return &lp.VTAGERate
	case SchemeHybrid:
		return &lp.HybridRate
	default:
		return &lp.StrideRate
	}
}

// RateOf returns the profiled rate of one scheme.
func (lp *LoadProfile) RateOf(s Scheme) float64 { return *lp.rate(s) }

// ZooBest is the zoo-wide argmax: the scheme with the highest profiled
// rate across all six families, ties broken toward the earlier scheme in
// the fixed zoo order (stride, fcm, hybrid, last, lnv, vtage).
func (lp *LoadProfile) ZooBest() (Scheme, float64) {
	best, rate := zooOrder[0], lp.RateOf(zooOrder[0])
	for _, s := range zooOrder[1:] {
		if r := lp.RateOf(s); r > rate {
			best, rate = s, r
		}
	}
	return best, rate
}

// Profile holds the results of the value-profiling pass.
type Profile struct {
	Loads     map[LoadKey]*LoadProfile
	BlockFreq map[BlockKey]int64
	// EdgeFreq counts traversals of each CFG edge (used by region
	// formation to pick likely successors).
	EdgeFreq map[EdgeKey]int64
	// DynOps is the total dynamic operation count of the run.
	DynOps int64
	// Meters is the set of families whose rates Loads carries. Consumers
	// that read a rate check it first (speculate.Transform refuses a
	// config that reads an unmetered family).
	Meters Meters
}

// Load returns the profile of a site (nil if never executed).
func (p *Profile) Load(fn string, opID int) *LoadProfile {
	return p.Loads[LoadKey{Func: fn, OpID: opID}]
}

// Clone deep-copies the profile. Callers that rescore or mask predictor
// rates (the predictor-family ablation) clone first, so a profile shared
// through the experiment front-end cache is never mutated.
func (p *Profile) Clone() *Profile {
	c := &Profile{
		Loads:     make(map[LoadKey]*LoadProfile, len(p.Loads)),
		BlockFreq: make(map[BlockKey]int64, len(p.BlockFreq)),
		EdgeFreq:  make(map[EdgeKey]int64, len(p.EdgeFreq)),
		DynOps:    p.DynOps,
		Meters:    p.Meters,
	}
	for k, lp := range p.Loads {
		dup := *lp
		c.Loads[k] = &dup
	}
	for k, v := range p.BlockFreq {
		c.BlockFreq[k] = v
	}
	for k, v := range p.EdgeFreq {
		c.EdgeFreq[k] = v
	}
	return c
}

// Freq returns the execution count of a block.
func (p *Profile) Freq(fn string, block int) int64 {
	return p.BlockFreq[BlockKey{Func: fn, Block: block}]
}

// Edge returns the traversal count of a CFG edge.
func (p *Profile) Edge(fn string, from, to int) int64 {
	return p.EdgeFreq[EdgeKey{Func: fn, From: from, To: to}]
}

// Collect runs the program once and gathers the frequency profile and a
// value profile metering the whole predictor zoo.
func Collect(prog *ir.Program, entry string, args ...uint64) (*Profile, error) {
	return CollectMeters(prog, ZooMeters, entry, args...)
}

// CollectMeters is Collect metering only the families in m (the zero set
// meters the whole zoo; NoMeters meters nothing and leaves Loads empty).
// Each load site runs one predictor per metered family; the profiling
// VTAGE is a private per-site table, so the profile measures each site's
// intrinsic predictability, not cross-site interference.
//
// The run counts into dense per-function slices indexed by block ID,
// successor slot and op ID, built before it starts, and converts them to
// the keyed Profile at the end.
func CollectMeters(prog *ir.Program, m Meters, entry string, args ...uint64) (*Profile, error) {
	var schemes []Scheme
	for _, s := range zooOrder {
		if m.Has(s) {
			schemes = append(schemes, s)
		}
	}
	im := interp.New(prog)
	c := newCollector(prog, schemes)
	im.Hooks.OnBlock = c.onBlock
	if len(schemes) > 0 {
		im.Hooks.OnLoad = c.onLoad
	}
	if _, err := im.Run(entry, args...); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	prof := &Profile{
		Loads:     map[LoadKey]*LoadProfile{},
		BlockFreq: map[BlockKey]int64{},
		EdgeFreq:  map[EdgeKey]int64{},
		DynOps:    im.Steps,
		Meters:    m.full(),
	}
	c.publish(prog, prof)
	return prof, nil
}

// funcCounts holds one function's counters, indexed densely by block ID,
// successor slot and op ID.
type funcCounts struct {
	f      *ir.Func
	blocks []int64
	edges  [][]int64     // edges[b][i] counts traversals of f.Blocks[b].Succs[i]
	sites  []*siteMeters // by op ID; nil until the load first executes
}

// siteMeters is one load site's counters: its execution count and one
// rate meter per metered family, in the collector's scheme order.
type siteMeters struct {
	count  int64
	meters []predict.RateMeter
}

// blockRef names the block last entered at one call depth.
type blockRef struct {
	fc    *funcCounts
	block int
}

// collector gathers one profiling run's counters.
type collector struct {
	schemes []Scheme
	byFunc  map[*ir.Func]*funcCounts
	cur     *funcCounts // the most recently looked-up function
	// prev tracks the last block seen per call depth, to attribute edges:
	// a new block at depth d in the same function as the previous block at
	// depth d traversed the edge between them.
	prev []blockRef
}

func newCollector(prog *ir.Program, schemes []Scheme) *collector {
	c := &collector{schemes: schemes, byFunc: make(map[*ir.Func]*funcCounts, len(prog.Funcs))}
	for _, f := range prog.Funcs {
		fc := &funcCounts{f: f, blocks: make([]int64, len(f.Blocks)), edges: make([][]int64, len(f.Blocks))}
		nsucc, nops := 0, f.NextOpID()
		for _, b := range f.Blocks {
			nsucc += len(b.Succs)
			for _, op := range b.Ops {
				if op.ID >= nops {
					nops = op.ID + 1
				}
			}
		}
		flat := make([]int64, nsucc)
		for i, b := range f.Blocks {
			fc.edges[i], flat = flat[:len(b.Succs):len(b.Succs)], flat[len(b.Succs):]
		}
		if len(schemes) > 0 {
			fc.sites = make([]*siteMeters, nops)
		}
		c.byFunc[f] = fc
	}
	return c
}

func (c *collector) funcOf(f *ir.Func) *funcCounts {
	if c.cur == nil || c.cur.f != f {
		c.cur = c.byFunc[f]
	}
	return c.cur
}

func (c *collector) onBlock(f *ir.Func, b *ir.Block, depth int) {
	fc := c.funcOf(f)
	fc.blocks[b.ID]++
	for len(c.prev) <= depth {
		c.prev = append(c.prev, blockRef{})
	}
	if prev := c.prev[depth]; prev.fc == fc {
		// Guard against false edges between consecutive invocations of
		// the same function at one depth: the edge must exist in the CFG.
		for i, s := range f.Blocks[prev.block].Succs {
			if s == b.ID {
				fc.edges[prev.block][i]++
				break
			}
		}
	}
	c.prev[depth] = blockRef{fc: fc, block: b.ID}
}

func (c *collector) onLoad(f *ir.Func, op *ir.Op, _ int, value uint64, _ int) {
	fc := c.funcOf(f)
	s := fc.sites[op.ID]
	if s == nil {
		s = &siteMeters{meters: make([]predict.RateMeter, len(c.schemes))}
		for i, sch := range c.schemes {
			s.meters[i].P = newPredictor(sch)
		}
		fc.sites[op.ID] = s
	}
	s.count++
	for i := range s.meters {
		s.meters[i].Observe(value)
	}
}

// newPredictor returns a cold predictor of one family at the package
// default sizes; a VTAGE gets a private table.
func newPredictor(s Scheme) predict.Predictor {
	switch s {
	case SchemeFCM:
		return predict.NewFCM(predict.DefaultFCMOrder, predict.DefaultFCMTableBits)
	case SchemeLast:
		return predict.NewLastValue()
	case SchemeLNV:
		return predict.NewLastN(predict.DefaultLNVDepth)
	case SchemeVTAGE:
		return predict.NewVTAGE(predict.DefaultVTAGEBits).Site(0)
	case SchemeHybrid:
		return predict.NewHybrid(predict.DefaultFCMOrder, predict.DefaultFCMTableBits)
	default:
		return predict.NewStride()
	}
}

// publish converts the dense counters into the keyed Profile.
func (c *collector) publish(prog *ir.Program, prof *Profile) {
	for _, f := range prog.Funcs {
		fc := c.byFunc[f]
		for id, n := range fc.blocks {
			if n == 0 {
				continue
			}
			prof.BlockFreq[BlockKey{Func: f.Name, Block: id}] = n
			for i, e := range fc.edges[id] {
				if e != 0 {
					prof.EdgeFreq[EdgeKey{Func: f.Name, From: id, To: f.Blocks[id].Succs[i]}] = e
				}
			}
		}
		for id, s := range fc.sites {
			if s == nil {
				continue
			}
			k := LoadKey{Func: f.Name, OpID: id}
			lp := &LoadProfile{Key: k, Count: s.count}
			for i, sch := range c.schemes {
				*lp.rate(sch) = s.meters[i].Rate()
			}
			prof.Loads[k] = lp
		}
	}
}

// Selection maps each block to the ordered list of load sites chosen for
// prediction in it, plus each site's predictor family. It is produced by
// the speculate pass and consumed by outcome profiling.
type Selection struct {
	// PerBlock lists selected load op IDs per block, in ascending op-ID
	// order; the position of a load in this list is its bit position in
	// outcome masks.
	PerBlock map[BlockKey][]int
	// Schemes gives the chosen predictor family per site.
	Schemes map[LoadKey]Scheme
}

// NewSelection returns an empty selection.
func NewSelection() *Selection {
	return &Selection{
		PerBlock: map[BlockKey][]int{},
		Schemes:  map[LoadKey]Scheme{},
	}
}

// Add registers a selected load site.
func (s *Selection) Add(fn string, block, opID int, scheme Scheme) {
	bk := BlockKey{Func: fn, Block: block}
	s.PerBlock[bk] = append(s.PerBlock[bk], opID)
	sort.Ints(s.PerBlock[bk])
	s.Schemes[LoadKey{Func: fn, OpID: opID}] = scheme
}

// Outcomes tallies, per block, how many dynamic instances saw each
// prediction-outcome mask (bit i set = i-th selected load predicted
// correctly in that instance).
type Outcomes struct {
	// MaskCounts[block][mask] = number of instances.
	MaskCounts map[BlockKey]map[uint32]int64
	// Executions[block] = total instances (sum over masks).
	Executions map[BlockKey]int64
}

// AllCorrectCount returns instances of the block where every prediction hit.
func (o *Outcomes) AllCorrectCount(bk BlockKey, numSel int) int64 {
	full := uint32(1)<<uint(numSel) - 1
	return o.MaskCounts[bk][full]
}

// AllWrongCount returns instances where every prediction missed.
func (o *Outcomes) AllWrongCount(bk BlockKey) int64 {
	return o.MaskCounts[bk][0]
}

// openInstance is a block instance whose selected loads are still resolving.
type openInstance struct {
	bk    BlockKey
	depth int
	sel   []int // selected op IDs, mask bit order
	mask  uint32
}

// OutcomeHooks receive streaming events from StreamOutcomes.
type OutcomeHooks struct {
	// OnInstance fires when a block instance with selected loads has
	// resolved (at the next block boundary): its outcome mask (bit i set =
	// i-th selected load predicted correctly) and selection size.
	OnInstance func(bk BlockKey, mask uint32, numSel int)
	// OnBlock fires on every dynamic block entry, selected or not.
	OnBlock func(bk BlockKey)
}

// StreamOutcomes replays the program with one live predictor per selected
// site (of the profiled-best family) and streams per-instance outcome
// events. CollectOutcomes is the tallying wrapper most callers want.
func StreamOutcomes(prog *ir.Program, sel *Selection, entry string, hooks OutcomeHooks, args ...uint64) error {
	m := interp.New(prog)
	preds := map[LoadKey]predict.Predictor{}
	// VTAGE sites share one table per replay run, like the hardware they
	// model; site IDs are assigned in first-execution order (deterministic
	// for a deterministic program).
	var vtage *predict.VTAGE
	var stack []*openInstance

	finalize := func(inst *openInstance) {
		if hooks.OnInstance != nil {
			hooks.OnInstance(inst.bk, inst.mask, len(inst.sel))
		}
	}
	closeDeeper := func(depth int) {
		for len(stack) > 0 && stack[len(stack)-1].depth >= depth {
			finalize(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
		}
	}

	m.Hooks.OnBlock = func(f *ir.Func, b *ir.Block, depth int) {
		closeDeeper(depth)
		bk := BlockKey{Func: f.Name, Block: b.ID}
		if hooks.OnBlock != nil {
			hooks.OnBlock(bk)
		}
		selLoads := sel.PerBlock[bk]
		if len(selLoads) == 0 {
			return // nothing to track; instance boundaries don't matter
		}
		stack = append(stack, &openInstance{bk: bk, depth: depth, sel: selLoads})
	}
	m.Hooks.OnLoad = func(f *ir.Func, op *ir.Op, addr int, value uint64, depth int) {
		k := LoadKey{Func: f.Name, OpID: op.ID}
		scheme, selected := sel.Schemes[k]
		if !selected {
			return
		}
		p := preds[k]
		if p == nil {
			if scheme == SchemeVTAGE {
				if vtage == nil {
					vtage = predict.NewVTAGE(predict.DefaultVTAGEBits)
				}
				p = vtage.Site(len(preds))
			} else {
				p = newPredictor(scheme)
			}
			preds[k] = p
		}
		hit := false
		if v, ok := p.Predict(); ok && v == value {
			hit = true
		}
		p.Update(value)

		// The owning instance is the deepest open instance at this call
		// depth (deeper callee instances may still sit above it until the
		// next block event closes them).
		for i := len(stack) - 1; i >= 0; i-- {
			inst := stack[i]
			if inst.depth > depth {
				continue
			}
			if inst.depth < depth || inst.bk.Func != f.Name {
				break
			}
			if hit {
				for j, id := range inst.sel {
					if id == op.ID {
						inst.mask |= 1 << uint(j)
						break
					}
				}
			}
			break
		}
	}
	if _, err := m.Run(entry, args...); err != nil {
		return fmt.Errorf("profile outcomes: %w", err)
	}
	closeDeeper(0)
	return nil
}

// CollectOutcomes tallies per-instance outcome masks per block.
func CollectOutcomes(prog *ir.Program, sel *Selection, entry string, args ...uint64) (*Outcomes, error) {
	out := &Outcomes{
		MaskCounts: map[BlockKey]map[uint32]int64{},
		Executions: map[BlockKey]int64{},
	}
	err := StreamOutcomes(prog, sel, entry, OutcomeHooks{
		OnInstance: func(bk BlockKey, mask uint32, numSel int) {
			out.Executions[bk]++
			mc := out.MaskCounts[bk]
			if mc == nil {
				mc = map[uint32]int64{}
				out.MaskCounts[bk] = mc
			}
			mc[mask]++
		},
	}, args...)
	if err != nil {
		return nil, err
	}
	return out, nil
}
