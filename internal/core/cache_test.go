package core

// Unit tests for the memory-hierarchy timing model (cache.go): LRU
// set-associative levels, hierarchical demand-access latency charging,
// in-flight fill (late prefetch) residuals, and the I-cache penalty
// model. The untimed LRUCache wrapper is tested from outside the package
// in internal/cache. The end-to-end contracts — flat equivalence and
// cycles-only divergence — are pinned in memflat_test.go, the timing
// digest and the conformance suite.

import (
	"testing"

	"vliwvp/internal/machine"
)

func TestCacheLevelLRU(t *testing.T) {
	// 8 lines, 2-way, 4 sets: lines with equal line&3 collide.
	p := machine.CacheParams{Lines: 8, Assoc: 2, LineWords: 4, HitLat: 1}
	l := newCacheLevel(&p)
	if l.lookup(0) != -1 {
		t.Fatal("fresh level reports a hit")
	}
	l.fill(0, 1) // set 0
	l.fill(4, 2) // set 0
	if l.lookup(0) < 0 || l.lookup(4) < 0 {
		t.Fatal("filled lines not found")
	}
	// Touch line 0 so line 4 is LRU, then overflow the set.
	l.stamp[l.lookup(0)] = 3
	l.fill(8, 4) // set 0: evicts line 4
	if l.lookup(4) != -1 {
		t.Error("LRU victim (line 4) still present")
	}
	if l.lookup(0) < 0 || l.lookup(8) < 0 {
		t.Error("MRU line or fresh fill missing after eviction")
	}
	// Refilling a resident line reuses its slot (no eviction).
	before := l.lookup(8)
	if got := l.fill(8, 5); got != before {
		t.Errorf("refill moved line 8: slot %d -> %d", before, got)
	}
	l.reset()
	if l.lookup(0) != -1 || l.lookup(8) != -1 {
		t.Error("reset did not invalidate tags")
	}
}

func TestMemSysDAccessSingleLevel(t *testing.T) {
	m := newMemSys(machine.MemL1) // L1 64/4/4 hit 3, memory 20
	lat, lvl, pref := m.dAccess(0, 0)
	if lat != 23 || lvl != 1 || pref {
		t.Fatalf("cold miss: lat=%d lvl=%d pref=%v, want 23, 1 (memory), false", lat, lvl, pref)
	}
	// Back-to-back demand to the same line pays the residual fill time:
	// the line is ready at cycle 23, so probing at cycle 0 costs 23 again.
	if lat, _, _ = m.dAccess(1, 0); lat != 23 {
		t.Errorf("same-cycle re-demand lat=%d, want 23 (residual fill)", lat)
	}
	// Once the fill lands it is a plain hit anywhere in the line.
	if lat, lvl, _ = m.dAccess(3, 23); lat != 3 || lvl != 0 {
		t.Errorf("post-fill hit lat=%d lvl=%d, want 3, 0", lat, lvl)
	}
}

func TestMemSysDAccessHierarchy(t *testing.T) {
	m := newMemSys(machine.MemL2) // L1 64/4/4 h3, L2 512/8/8 h9, memory 60
	lat, lvl, _ := m.dAccess(0, 0)
	if lat != 72 || lvl != 2 {
		t.Fatalf("cold miss: lat=%d lvl=%d, want 3+9+60=72 from memory", lat, lvl)
	}
	// Evict line 0 from L1 (16 sets, 4-way: five conflicting lines) while
	// it stays resident in L2; the re-demand is then an L2 hit.
	now := int64(100)
	for _, addr := range []int64{64, 128, 192, 256} {
		l, _, _ := m.dAccess(addr, now)
		now += l + 1
	}
	lat, lvl, _ = m.dAccess(0, now)
	if lat != 12 || lvl != 1 {
		t.Errorf("after L1 eviction: lat=%d lvl=%d, want 3+9=12 served by L2", lat, lvl)
	}
}

func TestMemSysPrefetchFill(t *testing.T) {
	m := newMemSys(machine.MemL1PF)
	if !m.prefetchFill(8, 0) {
		t.Fatal("prefetch of an absent line reported redundant")
	}
	if m.prefetchFill(9, 0) {
		t.Error("prefetch of a line already in flight reported issued")
	}
	// Late prefetch: the fill completes at 23, a demand at cycle 10
	// pays hit latency plus the residual 10 cycles.
	lat, lvl, pref := m.dAccess(8, 10)
	if lat != 13 || lvl != 0 || !pref {
		t.Errorf("late-prefetch demand: lat=%d lvl=%d pref=%v, want 13, 0, true", lat, lvl, pref)
	}
	// The usefulness bit reports once per prefetched line.
	if _, _, pref = m.dAccess(9, 40); pref {
		t.Error("second demand still flagged as a prefetch hit")
	}
	// Timing-only model: a prefetch far past any heap bound is safe, and
	// so are negative (wrapped-stride) line addresses.
	if !m.prefetchFill(1<<40, 50) {
		t.Error("prefetch past end of heap not issued")
	}
	if !m.prefetchFill(-64, 50) {
		t.Error("prefetch at a negative (wrapped) address not issued")
	}
}

func TestMemSysIAccess(t *testing.T) {
	m := newMemSys(machine.MemL2) // ICache 128/2/8 hit 1, memory 60
	pen, miss := m.iAccess(0, 0)
	if pen != 60 || !miss {
		t.Fatalf("cold fetch: pen=%d miss=%v, want 60, true", pen, miss)
	}
	// Same line while the fill is in flight: residual wait, tags hit.
	if pen, miss = m.iAccess(1, 10); pen != 50 || miss {
		t.Errorf("in-flight fetch: pen=%d miss=%v, want 50, false", pen, miss)
	}
	// After the fill lands, a HitLat-1 hit costs no stall at all.
	if pen, miss = m.iAccess(2, 100); pen != 0 || miss {
		t.Errorf("warm fetch: pen=%d miss=%v, want 0, false", pen, miss)
	}
}

func TestMemSysReset(t *testing.T) {
	m := newMemSys(machine.MemL2)
	m.dAccess(0, 0)
	m.iAccess(0, 0)
	m.reset()
	if lat, lvl, _ := m.dAccess(0, 0); lat != 72 || lvl != 2 {
		t.Errorf("post-reset demand lat=%d lvl=%d, want cold-miss 72 from memory", lat, lvl)
	}
	if pen, miss := m.iAccess(0, 0); pen != 60 || !miss {
		t.Errorf("post-reset fetch pen=%d miss=%v, want cold-miss 60", pen, miss)
	}
}
