package serve

import (
	"container/list"
	"sync"
)

// cacheEntry is one resident embedding with the virtual time it becomes
// available (the completion time of the batch that computed it — a lookup
// that lands while the entry is still in flight waits on it, as a real
// serving tier waits on an in-flight future).
type cacheEntry struct {
	key     CacheKey
	emb     []float32
	readyAt float64
}

// EmbeddingCache is the legacy thread-safe LRU cache of final-layer
// embeddings: one mutex, a container/list, and a map of heap-allocated
// entries. The serving hot path now runs on ShardedCache; this
// implementation is retained as the semantic oracle — the 1-shard sharded
// cache must reproduce its hit/miss/eviction counters and resident set
// exactly on any request trace (see TestShardedCacheMatchesLegacyLRU).
// Capacity 0 disables caching (every Get misses, Put is a no-op).
//
// Ownership: Put RETAINS the caller's slice (both on insert and refresh);
// callers that keep mutating the buffer must pass a copy. ShardedCache
// instead copies into its arena, so this footgun is confined to the oracle.
type EmbeddingCache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	idx       map[CacheKey]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

// NewEmbeddingCache builds a cache holding up to capacity embeddings.
func NewEmbeddingCache(capacity int) *EmbeddingCache {
	if capacity < 0 {
		capacity = 0
	}
	return &EmbeddingCache{
		capacity: capacity,
		ll:       list.New(),
		idx:      make(map[CacheKey]*list.Element, capacity),
	}
}

// Get returns the cached embedding and its ready time, marking the entry
// most-recently-used on a hit.
func (c *EmbeddingCache) Get(k CacheKey) (emb []float32, readyAt float64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.idx[k]
	if !found {
		c.misses++
		return nil, 0, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.emb, e.readyAt, true
}

// Put inserts (or refreshes) an embedding, evicting the least-recently-used
// entry when the cache is full. The slice is retained; callers must pass a
// copy if they keep mutating it.
func (c *EmbeddingCache) Put(k CacheKey, emb []float32, readyAt float64) {
	if c.capacity == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.idx[k]; found {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.emb = emb
		e.readyAt = readyAt
		return
	}
	if c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.idx, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.idx[k] = c.ll.PushFront(&cacheEntry{key: k, emb: emb, readyAt: readyAt})
}

// Peek reports residency and the ready time without touching LRU order or
// the hit/miss counters (equivalence tests compare resident sets this way).
func (c *EmbeddingCache) Peek(k CacheKey) (readyAt float64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.idx[k]
	if !found {
		return 0, false
	}
	return el.Value.(*cacheEntry).readyAt, true
}

// Len returns the number of resident entries.
func (c *EmbeddingCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns cumulative hit, miss, and eviction counts.
func (c *EmbeddingCache) Stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
