package core

import (
	"math/bits"

	"vliwvp/internal/machine"
)

// This file is the memory-hierarchy timing model: a multi-level
// set-associative LRU D-cache, an optional I-cache, and the main-memory
// latency behind them. It is strictly a timing model — lookups and fills
// touch tag/stamp/ready arrays only, never architectural memory — so any
// address (including speculative garbage and prefetches past the end of
// the heap) is safe to probe. The conformance suite pins the contract:
// every configuration yields byte-identical architectural results, only
// cycle counts move.
//
// Addresses are word addresses (the interpreter's memory is a []uint64
// indexed directly); a line of LineWords words covers LineWords
// consecutive addresses. Instruction fetch uses a separate address space
// (one address per decoded long instruction) and a separate cache, so
// the two never alias.

// cacheLevel is one level's tag state. Slots are laid out set-major
// (set*assoc .. set*assoc+assoc-1); tag -1 is invalid.
type cacheLevel struct {
	lineShift uint  // log2(LineWords): word address -> line number
	setMask   int64 // sets-1 (sets is a power of two)
	assoc     int
	hitLat    int64
	tags      []int64
	stamp     []int64 // LRU clock value of the slot's last touch
	readyAt   []int64 // cycle the slot's in-flight fill completes
	pref      []bool  // filled by a prefetch, not yet demanded
}

func newCacheLevel(p *machine.CacheParams) cacheLevel {
	l := cacheLevel{
		lineShift: uint(bits.TrailingZeros(uint(p.LineWords))),
		setMask:   int64(p.Sets() - 1),
		assoc:     p.Assoc,
		hitLat:    int64(p.HitLat),
		tags:      make([]int64, p.Lines),
		stamp:     make([]int64, p.Lines),
		readyAt:   make([]int64, p.Lines),
		pref:      make([]bool, p.Lines),
	}
	for i := range l.tags {
		l.tags[i] = -1
	}
	return l
}

func (l *cacheLevel) reset() {
	for i := range l.tags {
		l.tags[i] = -1
		l.stamp[i] = 0
		l.readyAt[i] = 0
		l.pref[i] = false
	}
}

// lookup returns the slot holding line, or -1.
func (l *cacheLevel) lookup(line int64) int {
	base := int(line&l.setMask) * l.assoc
	for w := 0; w < l.assoc; w++ {
		if l.tags[base+w] == line {
			return base + w
		}
	}
	return -1
}

// fill inserts line into its set (reusing its slot if present, else an
// invalid slot, else the LRU victim) and returns the slot index.
func (l *cacheLevel) fill(line, tick int64) int {
	base := int(line&l.setMask) * l.assoc
	victim := base
	for w := 0; w < l.assoc; w++ {
		i := base + w
		if l.tags[i] == line || l.tags[i] == -1 {
			victim = i
			break
		}
		if l.stamp[i] < l.stamp[victim] {
			victim = i
		}
	}
	l.tags[victim] = line
	l.stamp[victim] = tick
	l.readyAt[victim] = 0
	l.pref[victim] = false
	return victim
}

// memSys is one simulator's hierarchy state. It is built once per
// (simulator, config) binding and reset in place between runs, so the
// steady state allocates nothing.
type memSys struct {
	cfg    *machine.MemConfig
	levels []cacheLevel
	icache []cacheLevel // 0 or 1 entries (slice avoids a nil-vs-value split)
	memLat int64
	tick   int64 // LRU clock, bumped per access
}

func newMemSys(cfg *machine.MemConfig) *memSys {
	m := &memSys{cfg: cfg, memLat: int64(cfg.MemLat)}
	for i := range cfg.Levels {
		m.levels = append(m.levels, newCacheLevel(&cfg.Levels[i]))
	}
	if cfg.ICache != nil {
		m.icache = append(m.icache, newCacheLevel(cfg.ICache))
	}
	return m
}

func (m *memSys) reset() {
	m.tick = 0
	for i := range m.levels {
		m.levels[i].reset()
	}
	for i := range m.icache {
		m.icache[i].reset()
	}
}

func (m *memSys) hasICache() bool { return len(m.icache) > 0 }

// dAccess charges one demand load at word address addr issued at cycle
// now. It returns the total latency, the serving level (0-based;
// len(levels) means main memory), and whether the access hit a line a
// prefetch brought in (the prefetcher's usefulness signal). The line is
// promoted into every level above the serving one.
func (m *memSys) dAccess(addr, now int64) (lat int64, level int, prefHit bool) {
	m.tick++
	for k := range m.levels {
		l := &m.levels[k]
		line := addr >> l.lineShift
		lat += l.hitLat
		if i := l.lookup(line); i >= 0 {
			l.stamp[i] = m.tick
			// A line still being filled (late prefetch, or a back-to-back
			// demand to a just-missed line) costs the residual fill time.
			if wait := l.readyAt[i] - (now + lat); wait > 0 {
				lat += wait
			}
			if l.pref[i] {
				l.pref[i] = false
				prefHit = true
			}
			m.fillAbove(k, addr, now+lat)
			return lat, k, prefHit
		}
	}
	lat += m.memLat
	m.fillAbove(len(m.levels), addr, now+lat)
	return lat, len(m.levels), false
}

// fillAbove installs addr's line into every level above the serving one,
// completing at readyAt.
func (m *memSys) fillAbove(serving int, addr, readyAt int64) {
	for j := 0; j < serving; j++ {
		l := &m.levels[j]
		i := l.fill(addr>>l.lineShift, m.tick)
		l.readyAt[i] = readyAt
	}
}

// prefetchFill brings addr's line into L1 ahead of demand, completing
// after the latency of wherever the line currently lives (probed without
// disturbing LRU state). Returns false when L1 already holds the line.
func (m *memSys) prefetchFill(addr, now int64) bool {
	l1 := &m.levels[0]
	line := addr >> l1.lineShift
	if l1.lookup(line) >= 0 {
		return false
	}
	lat := l1.hitLat
	found := false
	for k := 1; k < len(m.levels); k++ {
		ll := &m.levels[k]
		lat += ll.hitLat
		if ll.lookup(addr>>ll.lineShift) >= 0 {
			found = true
			break
		}
	}
	if !found {
		lat += m.memLat
	}
	m.tick++
	i := l1.fill(line, m.tick)
	l1.readyAt[i] = now + lat
	l1.pref[i] = true
	return true
}

// iAccess charges one instruction fetch at fetch address addr issued at
// cycle now. It returns the stall penalty beyond the pipeline's implicit
// single fetch cycle (0 for a ready hit with HitLat 1) and whether the
// tags missed. I-cache misses go straight to memory.
func (m *memSys) iAccess(addr, now int64) (pen int64, miss bool) {
	ic := &m.icache[0]
	m.tick++
	line := addr >> ic.lineShift
	if i := ic.lookup(line); i >= 0 {
		ic.stamp[i] = m.tick
		pen = ic.hitLat - 1
		if wait := ic.readyAt[i] - now; wait > pen {
			pen = wait // in-flight fill from an earlier miss
		}
		return pen, false
	}
	pen = ic.hitLat - 1 + m.memLat
	i := ic.fill(line, m.tick)
	ic.readyAt[i] = now + pen
	return pen, true
}

// LRUCache is one true-LRU level with no timing: a set-associative cache
// over word addresses that counts hits and misses, for trace studies
// outside the simulator (the baseline comparison's I-cache pollution
// study). Addresses must be non-negative.
type LRUCache struct {
	l            cacheLevel
	tick         int64
	Hits, Misses int64
}

// NewLRUCache builds an empty cache of p's geometry (p.HitLat is unused).
func NewLRUCache(p machine.CacheParams) *LRUCache { return &LRUCache{l: newCacheLevel(&p)} }

// Access touches the word at addr and reports whether it hit.
func (c *LRUCache) Access(addr int64) bool {
	c.tick++
	line := addr >> c.l.lineShift
	if i := c.l.lookup(line); i >= 0 {
		c.l.stamp[i] = c.tick
		c.Hits++
		return true
	}
	c.l.fill(line, c.tick)
	c.Misses++
	return false
}

// AccessRange touches every line covering [addr, addr+words) and returns
// the misses incurred — the shape of a block fetch.
func (c *LRUCache) AccessRange(addr int64, words int) int {
	misses := 0
	for line := addr >> c.l.lineShift; line <= (addr+int64(words)-1)>>c.l.lineShift; line++ {
		if !c.Access(line << c.l.lineShift) {
			misses++
		}
	}
	return misses
}

// MissRate returns the miss fraction so far (0 before any access).
func (c *LRUCache) MissRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Hits+c.Misses)
}
