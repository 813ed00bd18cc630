package predict

// VTAGE is a tagged geometric-history context predictor in the style of
// the value-TAGE family: a set of tagged component tables indexed by a
// hash of the prediction site and its last h values, with h growing
// geometrically per component (1, 2, 4, 8). The longest-history component
// whose tag matches provides the prediction; a per-site last-value base
// predictor backstops the misses. On a mispredict, an entry is allocated
// in the next-longer component, stealing a slot whose useful counter has
// decayed.
//
// One VTAGE table is SHARED by all prediction sites of a simulation —
// that is the hardware structure being modeled, and it makes cross-site
// tag aliasing a real (tested) phenomenon. Sites address it through
// VTAGESite views created with Site; the site ID is folded into every
// index and tag hash.
//
// Lifecycle contract: VTAGESite.Reset clears ONLY site-local state (the
// value history and base predictor). It must, because the engine resets
// site views lazily mid-run, after sibling sites have already trained the
// shared table. The table itself is cleared exactly once per run by
// VTAGE.Reset.
type VTAGE struct {
	bits  int
	mask  uint64
	comps [][]vtageEntry // comps[i] has history length vtageHistLens[i]
}

type vtageEntry struct {
	tag   uint16
	value uint64
	ctr   uint8 // prediction confidence; 0 marks a free entry
	u     uint8 // usefulness (allocation victim selection)
}

// DefaultVTAGEBits sizes each component table at 2^bits entries when a
// config leaves it unset.
const DefaultVTAGEBits = 10

// vtageHistLens are the geometric component history lengths.
var vtageHistLens = [...]int{1, 2, 4, 8}

const (
	vtageMaxHist = 8    // longest component history; sizes the site ring
	vtageTagMask = 0xff // 8-bit tags, realistic and alias-prone by design
	vtageCtrMax  = 3
	vtageUMax    = 3
)

// NewVTAGE returns a cold shared table with 2^bits entries per component;
// bits < 2 is clamped to 2.
func NewVTAGE(bits int) *VTAGE {
	if bits < 2 {
		bits = 2
	}
	t := &VTAGE{bits: bits, mask: (1 << bits) - 1}
	t.comps = make([][]vtageEntry, len(vtageHistLens))
	for i := range t.comps {
		t.comps[i] = make([]vtageEntry, 1<<bits)
	}
	return t
}

// Reset clears every component table in place (no allocation).
func (t *VTAGE) Reset() {
	for _, comp := range t.comps {
		for i := range comp {
			comp[i] = vtageEntry{}
		}
	}
}

// Site returns a predictor view of the shared table for one prediction
// site.
func (t *VTAGE) Site(id int) *VTAGESite {
	return &VTAGESite{t: t, id: id}
}

// VTAGESite is one prediction site's view of a shared VTAGE table plus
// its site-local state: the value-history ring the component hashes fold
// and the last-value base predictor. It implements Predictor.
type VTAGESite struct {
	t    *VTAGE
	id   int
	hist [vtageMaxHist]uint64 // ring of recent values, hist[head-1] newest
	n    int                  // values seen, saturating at vtageMaxHist
	head int
	last uint64
	seen bool
	// hashes[ci] is component ci's hash of the current history, valid
	// while hashed is set; Update and Reset, which change the history,
	// clear it.
	hashes [len(vtageHistLens)]uint64
	hashed bool
}

// histAt returns the i-th most recent value, i in [0, vtageMaxHist).
func (s *VTAGESite) histAt(i int) uint64 {
	return s.hist[(s.head-1-i)&(vtageMaxHist-1)]
}

// fnvMix folds the 8 bytes of v into an FNV-1a hash.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= 1099511628211
	}
	return h
}

// hash returns component ci's table index and 8-bit tag: FNV-1a over the
// site ID and the newest vtageHistLens[ci] values. Each shorter history is
// a prefix of the longer ones, so one pass over the history yields every
// component's hash; it runs once per history and is reused until the
// history changes.
func (s *VTAGESite) hash(ci int) (idx uint64, tag uint16) {
	if !s.hashed {
		h := fnvMix(14695981039346656037, uint64(s.id))
		next := 0
		for i := 0; i < s.n && next < len(vtageHistLens); i++ {
			h = fnvMix(h, s.histAt(i))
			if i+1 == vtageHistLens[next] {
				s.hashes[next] = h
				next++
			}
		}
		s.hashed = true
	}
	h := s.hashes[ci]
	return h & s.t.mask, uint16(h>>32) & vtageTagMask
}

// provider returns the longest-history component with a tag match, or
// -1 when no component hits (the base predictor provides).
func (s *VTAGESite) provider() (comp int, idx uint64) {
	for ci := len(vtageHistLens) - 1; ci >= 0; ci-- {
		if s.n < vtageHistLens[ci] {
			continue
		}
		i, tag := s.hash(ci)
		e := &s.t.comps[ci][i]
		if e.ctr > 0 && e.tag == tag {
			return ci, i
		}
	}
	return -1, 0
}

// Predict implements Predictor.
func (s *VTAGESite) Predict() (uint64, bool) {
	if ci, idx := s.provider(); ci >= 0 {
		return s.t.comps[ci][idx].value, true
	}
	return s.last, s.seen
}

// Update implements Predictor. The provider is recomputed rather than
// remembered from Predict: the in-order engine issues a site's next
// LdPred before the previous check has resolved, so Predict/Update calls
// do not pair up.
func (s *VTAGESite) Update(actual uint64) {
	ci, idx := s.provider()
	predicted, havePred := s.last, s.seen
	if ci >= 0 {
		e := &s.t.comps[ci][idx]
		predicted, havePred = e.value, true
		if e.value == actual {
			if e.ctr < vtageCtrMax {
				e.ctr++
			}
			if e.u < vtageUMax {
				e.u++
			}
		} else {
			if e.ctr > 1 {
				e.ctr--
			} else {
				e.value = actual // replace a low-confidence entry in place
				e.ctr = 1
			}
			if e.u > 0 {
				e.u--
			}
		}
	}
	if !havePred || predicted != actual {
		// Allocate into a longer-history component; decayed-useful entries
		// are the victims, live ones age toward eviction.
		for ai := ci + 1; ai < len(vtageHistLens); ai++ {
			if s.n < vtageHistLens[ai] {
				break
			}
			i, tag := s.hash(ai)
			e := &s.t.comps[ai][i]
			if e.ctr == 0 || e.u == 0 {
				*e = vtageEntry{tag: tag, value: actual, ctr: 1}
				break
			}
			e.u--
		}
	}
	s.hist[s.head] = actual
	s.head = (s.head + 1) & (vtageMaxHist - 1)
	s.hashed = false
	if s.n < vtageMaxHist {
		s.n++
	}
	s.last, s.seen = actual, true
}

// Name implements Predictor.
func (s *VTAGESite) Name() string { return "vtage" }

// Reset implements Predictor. Site-local state only — see the lifecycle
// contract in the VTAGE doc comment.
func (s *VTAGESite) Reset() {
	s.n, s.head = 0, 0
	s.last, s.seen = 0, false
	s.hashed = false
}
