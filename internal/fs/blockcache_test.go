package fs

import (
	"fmt"
	"math/rand"
	"testing"
)

// refBlockCache is the stamp-and-scan LRU the linked-list cache
// replaced, kept as the reference it must match access for access:
// every touch takes a fresh stamp, and a miss on a full cache evicts
// the block with the smallest one. Stamps are unique, so that victim is
// exactly the least recently touched block.
type refBlockCache struct {
	capacity int
	stamp    uint64
	blocks   map[blockKey]uint64 // key → last-touch stamp

	hits, misses int64
}

func (c *refBlockCache) access(ino uint64, block int) bool {
	c.stamp++
	k := blockKey{ino, block}
	if _, ok := c.blocks[k]; ok {
		c.blocks[k] = c.stamp
		c.hits++
		return true
	}
	c.misses++
	if c.capacity <= 0 {
		return false
	}
	if len(c.blocks) >= c.capacity {
		var victim blockKey
		first := true
		for kk, s := range c.blocks {
			if first || s < c.blocks[victim] {
				victim, first = kk, false
			}
		}
		delete(c.blocks, victim)
	}
	c.blocks[k] = c.stamp
	return false
}

// TestBlockCacheMatchesStampScanReference replays seeded access streams
// through both caches and requires the same hit or miss on every
// access — which pins the victim order, since a different victim shows
// up as a diverging hit later in the stream. Working sets sit below the
// capacity (the cache fills and then only hits) and above it (every
// miss evicts); one stream draws uniformly, one is Zipf-skewed so
// recency actually decides what survives.
func TestBlockCacheMatchesStampScanReference(t *testing.T) {
	for _, capacity := range []int{0, 1, 2, 3, 7, 64, 512} {
		for _, ws := range []int{capacity/2 + 1, 2*capacity + 3} {
			for _, skewed := range []bool{false, true} {
				name := fmt.Sprintf("cap=%d/ws=%d/skewed=%v", capacity, ws, skewed)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(capacity*1000 + ws)))
					zipf := rand.NewZipf(rng, 1.2, 1, uint64(ws-1))
					got := newBlockCache(capacity)
					want := &refBlockCache{capacity: capacity, blocks: map[blockKey]uint64{}}
					for i := 0; i < 20*ws+200; i++ {
						k := rng.Intn(ws)
						if skewed {
							k = int(zipf.Uint64())
						}
						ino, block := uint64(k/4+1), k%4
						if g, w := got.access(ino, block), want.access(ino, block); g != w {
							t.Fatalf("access %d (ino %d, block %d): hit=%v, reference hit=%v", i, ino, block, g, w)
						}
					}
					if got.hits != want.hits || got.misses != want.misses {
						t.Errorf("stats %d/%d, reference %d/%d", got.hits, got.misses, want.hits, want.misses)
					}
					if n := len(got.index); n != len(want.blocks) {
						t.Errorf("%d blocks cached, reference %d", n, len(want.blocks))
					}
				})
			}
		}
	}
}

// fullCache returns a 512-block cache holding blocks 0..511 of inode 1.
func fullCache() *blockCache {
	c := newBlockCache(512)
	for b := 0; b < 512; b++ {
		c.access(1, b)
	}
	return c
}

func TestBlockCacheFullAccessDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	c := fullCache()
	b := 0
	if got := testing.AllocsPerRun(1000, func() {
		c.access(1, b%512)
		b++
	}); got != 0 {
		t.Errorf("hit allocates %.1f times per access, want 0", got)
	}
	// Cycling through twice the capacity in order makes every access a
	// miss that evicts.
	misses := c.misses
	if got := testing.AllocsPerRun(1000, func() {
		c.access(2, b%1024)
		b++
	}); got != 0 {
		t.Errorf("miss allocates %.1f times per access, want 0", got)
	}
	if c.misses-misses != 1001 {
		t.Errorf("%d of 1001 cycling accesses missed, want all", c.misses-misses)
	}
}

// BenchmarkBlockCacheMiss measures one evicting miss on a full
// 512-block cache.
func BenchmarkBlockCacheMiss(b *testing.B) {
	c := fullCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.access(2, i%1024)
	}
}

// BenchmarkBlockCacheHit measures one hit on a full 512-block cache.
func BenchmarkBlockCacheHit(b *testing.B) {
	c := fullCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.access(1, i%512)
	}
}
