package wire

import "container/list"

// defaultCacheCapacity keeps a thousand callers in the server's
// at-most-once window while bounding the memory a retransmission storm
// can pin.
const defaultCacheCapacity = 1024

// replyCache is the server's at-most-once record: one entry per client,
// bounded with LRU eviction so the cache cannot grow without limit as
// clients come and go. Clients issue one call at a time with increasing
// IDs, so a one-deep slot per client is exactly the at-most-once window.
// Evicting a client's entry narrows that window: a retransmission
// arriving after eviction is indistinguishable from a fresh call (the
// classic duplicate-reply-cache tradeoff), so the bound is sized
// generously.
//
// The server runs check-then-execute as one step on its stack's
// goroutine, so two copies of one call can never both miss the cache
// and run the handler twice.
type replyCache struct {
	cap     int
	entries map[uint32]*list.Element
	lru     *list.List // front = most recently used
	clock   *VClock    // the stack whose free list takes retired frames
}

// cacheEntry is the at-most-once record for one client: the last call
// executed for it and the encoded reply frame (nil when the reply could
// not be encoded — the execution still must not repeat).
type cacheEntry struct {
	clientID uint32
	callID   uint32
	frame    []byte
}

func newReplyCache(capacity int, clock *VClock) *replyCache {
	if capacity < 1 {
		capacity = 1
	}
	return &replyCache{cap: capacity, entries: map[uint32]*list.Element{}, lru: list.New(), clock: clock}
}

// get returns the client's cached record and bumps its recency.
func (c *replyCache) get(clientID uint32) (*cacheEntry, bool) {
	el, ok := c.entries[clientID]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// put records the client's latest executed call, evicting the least
// recently used client when the cache is full. It returns how many
// entries were evicted.
//
// Replaced and evicted reply frames are recycled into the stack's free
// list: the cache held their only reference — the link copies frames on
// Send, so a cached frame that has been transmitted (even several
// times, for duplicates) shares no memory with anything in flight.
func (c *replyCache) put(clientID, callID uint32, frame []byte) int {
	if el, ok := c.entries[clientID]; ok {
		e := el.Value.(*cacheEntry)
		if e.frame != nil {
			c.clock.putBuf(e.frame)
		}
		e.callID = callID
		e.frame = frame
		c.lru.MoveToFront(el)
		return 0
	}
	evicted := 0
	for c.lru.Len() >= c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		if old := oldest.Value.(*cacheEntry); old.frame != nil {
			c.clock.putBuf(old.frame)
		}
		delete(c.entries, oldest.Value.(*cacheEntry).clientID)
		evicted++
	}
	c.entries[clientID] = c.lru.PushFront(&cacheEntry{clientID: clientID, callID: callID, frame: frame})
	return evicted
}
