// Package cache_test pins the instruction-cache model of the baseline
// comparison's pollution study: core.LRUCache, an untimed set-associative
// true-LRU cache over word addresses. The tests sit outside core so they
// exercise only the exported wrapper, the way internal/exp uses it; the
// timed hierarchy built on the same LRU level is tested in core.
package cache_test

import (
	"testing"
	"testing/quick"

	"vliwvp/internal/core"
	"vliwvp/internal/machine"
)

// newCache builds a cache of totalWords capacity with the given line size
// (in words) and associativity.
func newCache(totalWords, lineWords, ways int) *core.LRUCache {
	return core.NewLRUCache(machine.CacheParams{Lines: totalWords / lineWords, Assoc: ways, LineWords: lineWords})
}

func TestColdMissThenHit(t *testing.T) {
	c := newCache(1024, 4, 2)
	if c.Access(100) {
		t.Error("cold access hit")
	}
	if !c.Access(100) {
		t.Error("warm access missed")
	}
	if !c.Access(101) {
		t.Error("same-line access missed")
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", c.Hits, c.Misses)
	}
}

func TestConflictEviction(t *testing.T) {
	// Direct-mapped, 4 lines of 4 words: addresses 0 and 64 share set 0.
	c := newCache(16, 4, 1)
	c.Access(0)
	c.Access(64)
	if c.Access(0) {
		t.Error("0 should have been evicted by 64 in a direct-mapped cache")
	}
}

func TestAssociativityAvoidsConflict(t *testing.T) {
	// 2-way: 0 and 64 can coexist.
	c := newCache(32, 4, 2)
	c.Access(0)
	c.Access(64)
	if !c.Access(0) {
		t.Error("2-way cache evicted a coresident line")
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way set: touch A, B, re-touch A, then C evicts B (the LRU way).
	c := newCache(32, 4, 2)
	const a, b, x = 0, 64, 128 // same set in a 4-set config
	c.Access(a)
	c.Access(b)
	c.Access(a)
	c.Access(x)
	if !c.Access(a) {
		t.Error("MRU line A evicted")
	}
	if c.Access(b) {
		t.Error("LRU line B survived")
	}
}

func TestAccessRangeCountsLineMisses(t *testing.T) {
	c := newCache(1024, 4, 1)
	if m := c.AccessRange(0, 10); m != 3 { // words 0..9 = lines 0,1,2
		t.Errorf("cold range misses = %d, want 3", m)
	}
	if m := c.AccessRange(0, 10); m != 0 {
		t.Errorf("warm range misses = %d, want 0", m)
	}
	if m := c.AccessRange(2, 4); m != 0 { // words 2..5 within lines 0,1
		t.Errorf("overlap range misses = %d, want 0", m)
	}
}

func TestMissRateBounds(t *testing.T) {
	c := newCache(64, 4, 1)
	if c.MissRate() != 0 {
		t.Error("empty cache miss rate must be 0")
	}
	c.Access(0)
	if r := c.MissRate(); r != 1 {
		t.Errorf("one cold access: rate %v, want 1", r)
	}
}

// Property: a footprint that fits the cache (any addresses within one
// 128-word window of a 256-word, 2-way cache) misses only on first touch,
// so replaying the access sequence hits every time.
func TestPropertySmallFootprintFullyCaches(t *testing.T) {
	check := func(seed []byte) bool {
		c := newCache(256, 4, 2)
		for _, b := range seed {
			c.Access(int64(b) % 128)
		}
		missesBefore := c.Misses
		for _, b := range seed {
			c.Access(int64(b) % 128)
		}
		return c.Misses == missesBefore
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
