package fs

// blockCache is an LRU cache of (inode, block) pairs standing in for
// the buffer cache; misses are "disk" accesses. The andrew-style
// workloads' blocking behaviour (workload.Spec.Blocks) corresponds to
// these misses.
//
// Recency is an intrusive doubly-linked list threaded through a slot
// array that grows to capacity and is then recycled: slots[0] is the
// list's sentinel, its next the most recently touched block and its
// prev the least. A hit relinks its slot at the front and a miss on a
// full cache reuses the back slot, so both are O(1) and
// allocation-free once the cache has filled.
type blockCache struct {
	capacity int
	index    map[blockKey]int32 // key → slot
	slots    []cacheSlot        // sentinel + up to capacity blocks

	hits, misses int64
}

type blockKey struct {
	ino   uint64
	block int
}

// cacheSlot is one cached block and its neighbours in recency order.
type cacheSlot struct {
	key        blockKey
	prev, next int32
}

// newBlockCache sizes nothing up front: the capacity can come from a
// decoded snapshot, and the slot array grows only as blocks arrive.
func newBlockCache(capacity int) *blockCache {
	return &blockCache{
		capacity: capacity,
		index:    map[blockKey]int32{},
		slots:    []cacheSlot{{}}, // the sentinel: zero links point at itself
	}
}

// access touches a block, returning whether it hit.
func (c *blockCache) access(ino uint64, block int) bool {
	k := blockKey{ino, block}
	if i, ok := c.index[k]; ok {
		c.unlink(i)
		c.pushFront(i)
		c.hits++
		return true
	}
	c.misses++
	if c.capacity <= 0 {
		return false // uncached configuration: every access is a miss
	}
	var i int32
	if len(c.slots) <= c.capacity {
		i = int32(len(c.slots))
		c.slots = append(c.slots, cacheSlot{})
	} else {
		// Evict the LRU entry and reuse its slot.
		i = c.slots[0].prev
		delete(c.index, c.slots[i].key)
		c.unlink(i)
	}
	c.slots[i].key = k
	c.index[k] = i
	c.pushFront(i)
	return false
}

func (c *blockCache) unlink(i int32) {
	p, n := c.slots[i].prev, c.slots[i].next
	c.slots[p].next = n
	c.slots[n].prev = p
}

func (c *blockCache) pushFront(i int32) {
	n := c.slots[0].next
	c.slots[i].prev, c.slots[i].next = 0, n
	c.slots[n].prev = i
	c.slots[0].next = i
}
