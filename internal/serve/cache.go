package serve

// CacheKey identifies one cached embedding: the query vertex and the version
// of the model that produced it. Bumping the version (after retraining or a
// weight push) invalidates every older entry without an explicit flush.
type CacheKey struct {
	Vertex  int32
	Version int
}

// hashCacheKey mixes a key splitmix64-style. The low bits pick the shard and
// the high 32 bits pick the home slot in the shard's open-addressing table,
// so the two indices are decorrelated.
func hashCacheKey(k CacheKey) uint64 {
	x := uint64(uint32(k.Vertex)) | uint64(uint32(k.Version))<<32
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// shardEntry is one slab slot: the key, the entry's virtual ready time, the
// sequence number of the insert that last wrote it, the resident embedding
// length, and intrusive LRU links (slab indices, -1 = nil).
// The embedding payload lives at a fixed stride in the shard's arena, so an
// entry never owns a heap object of its own.
type shardEntry struct {
	key     CacheKey
	readyAt float64
	seq     uint64
	embLen  int32
	prev    int32
	next    int32
}

// cacheShard is one hash partition: an intrusive doubly-linked LRU over a
// preallocated entry slab, embeddings in a flat arena, and an open-addressing
// index (linear probing, backward-shift deletion) mapping keys to slab slots.
// Everything is sized at construction; steady-state get/put perform zero
// allocations and zero interface boxing.
type cacheShard struct {
	capacity int32
	length   int32
	head     int32 // most recently used (-1 when empty)
	tail     int32 // least recently used (-1 when empty)
	free     int32 // free-list head through entry.next (-1 when exhausted)
	entries  []shardEntry
	arena    []float32
	table    []int32 // slab index + 1; 0 = empty
	mask     uint32  // len(table) - 1

	hits      int64
	misses    int64
	evictions int64
}

// ShardedCache is the serving tier's embedding cache: hash(CacheKey)
// partitions entries over power-of-two shards, each an allocation-free LRU
// holding its share of the capacity (see cacheShard). A 1-shard cache
// reproduces the global-LRU oracle's (cache_legacy_test.go) hit/miss/eviction
// counters and resident set exactly on any trace — property-tested against
// it — and with N shards only the *eviction victim* choice differs
// (per-shard rather than global LRU order), so shard count never changes
// which keys are resident until evictions begin.
//
// The cache takes no locks: the serving event loop is its one goroutine, so
// callers that share a cache across goroutines serialise access themselves.
//
// Ownership: PutMany COPIES each embedding into the shard arena
// (truncated at the cache's stride); the caller keeps its buffer and may
// reuse it immediately. Get returns a view into the arena that is valid
// until the entry is evicted or refreshed — callers that keep embeddings
// across cache operations copy them out. The serving loop inserts a batch
// whose forward is still running with no embedding, and copies its rows in
// (fill) when the batch settles, which may be several inserts later. Every
// insert stamps the entries it writes with its own sequence number, and fill
// writes only into an entry that still carries the stamp of the insert it
// completes, so a late row never lands over an entry a newer insert wrote;
// lookups read only residency and ready times, so nothing observes the gap.
type ShardedCache struct {
	shards    []cacheShard
	shardMask uint64
	stride    int
	capacity  int
	seq       uint64 // the last insert's sequence number
}

// NewShardedCache builds a cache holding up to capacity embeddings of at
// most stride floats each, partitioned over the given shard count (rounded
// down to a power of two, clamped to [1, capacity]; 0 picks 1). Capacity 0
// disables caching: every Get misses and PutMany is a no-op, exactly like the
// LRU oracle.
func NewShardedCache(capacity, shards, stride int) *ShardedCache {
	if capacity < 0 {
		capacity = 0
	}
	if stride < 0 {
		stride = 0
	}
	if shards < 1 {
		shards = 1
	}
	if capacity > 0 && shards > capacity {
		shards = capacity
	}
	n := 1
	for n*2 <= shards {
		n *= 2
	}
	c := &ShardedCache{
		shards:    make([]cacheShard, n),
		shardMask: uint64(n - 1),
		stride:    stride,
		capacity:  capacity,
	}
	base, rem := capacity/n, capacity%n
	for i := range c.shards {
		cap := base
		if i < rem {
			cap++
		}
		c.shards[i].init(int32(cap), stride)
	}
	return c
}

func (s *cacheShard) init(capacity int32, stride int) {
	s.capacity = capacity
	s.head, s.tail = -1, -1
	s.entries = make([]shardEntry, capacity)
	s.arena = make([]float32, int(capacity)*stride)
	// Table sized ≥ 2× capacity keeps probe chains short and guarantees an
	// empty slot terminates every probe.
	tlen := 8
	for tlen < int(capacity)*2 {
		tlen *= 2
	}
	s.table = make([]int32, tlen)
	s.mask = uint32(tlen - 1)
	s.free = -1
	for i := capacity - 1; i >= 0; i-- {
		s.entries[i].next = s.free
		s.free = i
	}
}

// shardFor returns the shard owning k.
func (c *ShardedCache) shardFor(k CacheKey) *cacheShard {
	return &c.shards[hashCacheKey(k)&c.shardMask]
}

func (s *cacheShard) home(k CacheKey) uint32 {
	return uint32(hashCacheKey(k)>>32) & s.mask
}

// find probes for k: on a hit it returns the table slot and slab index; on a
// miss it returns the first empty slot and -1.
func (s *cacheShard) find(k CacheKey) (slot uint32, idx int32) {
	j := s.home(k)
	for {
		e := s.table[j]
		if e == 0 {
			return j, -1
		}
		if s.entries[e-1].key == k {
			return j, e - 1
		}
		j = (j + 1) & s.mask
	}
}

// removeSlot deletes table slot i by backward-shifting the probe chain
// (Robin-Hood-style), so lookups never need tombstones.
func (s *cacheShard) removeSlot(i uint32) {
	for {
		s.table[i] = 0
		j := i
		for {
			j = (j + 1) & s.mask
			e := s.table[j]
			if e == 0 {
				return
			}
			// Entry at j may move into the hole at i iff i lies between its
			// home slot and j (cyclically): moving it then shortens, never
			// breaks, its probe chain.
			h := s.home(s.entries[e-1].key)
			if (j-h)&s.mask >= (j-i)&s.mask {
				s.table[i] = e
				i = j
				break
			}
		}
	}
}

// detach unlinks slab entry i from the LRU list.
func (s *cacheShard) detach(i int32) {
	p, n := s.entries[i].prev, s.entries[i].next
	if p >= 0 {
		s.entries[p].next = n
	} else {
		s.head = n
	}
	if n >= 0 {
		s.entries[n].prev = p
	} else {
		s.tail = p
	}
}

// pushFront links slab entry i as most recently used.
func (s *cacheShard) pushFront(i int32) {
	s.entries[i].prev = -1
	s.entries[i].next = s.head
	if s.head >= 0 {
		s.entries[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// view returns entry i's arena-resident embedding.
func (s *cacheShard) view(i int32, stride int) []float32 {
	base := int(i) * stride
	return s.arena[base : base+int(s.entries[i].embLen)]
}

// get is the shard's lookup: counters and LRU touch exactly mirror the LRU
// oracle's Get.
func (s *cacheShard) get(k CacheKey, stride int) (emb []float32, readyAt float64, ok bool) {
	_, idx := s.find(k)
	if idx < 0 {
		s.misses++
		return nil, 0, false
	}
	s.hits++
	if s.head != idx {
		s.detach(idx)
		s.pushFront(idx)
	}
	return s.view(idx, stride), s.entries[idx].readyAt, true
}

// put is the shard's insert/refresh, stamped seq: the embedding is copied
// into the arena (truncated at stride), and eviction picks the shard's LRU
// tail — for a 1-shard cache, exactly the LRU oracle's policy.
func (s *cacheShard) put(k CacheKey, emb []float32, readyAt float64, seq uint64, stride int) {
	slot, idx := s.find(k)
	if idx >= 0 { // refresh in place
		s.entries[idx].readyAt = readyAt
		s.entries[idx].seq = seq
		base := int(idx) * stride
		s.entries[idx].embLen = int32(copy(s.arena[base:base+stride], emb))
		if s.head != idx {
			s.detach(idx)
			s.pushFront(idx)
		}
		return
	}
	if s.capacity == 0 {
		return
	}
	if s.length >= s.capacity {
		victim := s.tail
		vslot, _ := s.find(s.entries[victim].key)
		s.detach(victim)
		s.removeSlot(vslot)
		s.evictions++
		s.length--
		idx = victim
		// The backward shift may have rearranged the probe chain; re-probe
		// for the insertion slot.
		slot, _ = s.find(k)
	} else {
		idx = s.free
		s.free = s.entries[idx].next
	}
	s.entries[idx].key = k
	s.entries[idx].readyAt = readyAt
	s.entries[idx].seq = seq
	base := int(idx) * stride
	s.entries[idx].embLen = int32(copy(s.arena[base:base+stride], emb))
	s.table[slot] = idx + 1
	s.pushFront(idx)
	s.length++
}

// Get returns the cached embedding (an arena view — see the ownership note
// on ShardedCache) and its ready time, marking the entry most-recently-used
// on a hit.
func (c *ShardedCache) Get(k CacheKey) (emb []float32, readyAt float64, ok bool) {
	return c.shardFor(k).get(k, c.stride)
}

// GetMany looks up a batch: hit[i] reports whether keys[i] was resident,
// ready[i] its ready time, and (when embs is non-nil) embs[i] the arena view.
// It is len(keys) sequential Gets in slice order: counters and LRU touches
// are per key, and duplicates in the batch are each counted.
func (c *ShardedCache) GetMany(keys []CacheKey, ready []float64, hit []bool, embs [][]float32) {
	for i, k := range keys {
		e, r, ok := c.Get(k)
		ready[i], hit[i] = r, ok
		if embs != nil {
			embs[i] = e
		}
	}
}

// PutMany inserts (or refreshes) a batch of embeddings sharing one ready time
// (a computed batch completes as a unit), in slice order, copying each into
// its shard's arena and evicting the shard's least-recently-used entry when
// the shard is full. Every entry it writes is stamped with the insert's one
// sequence number, which it returns for fill.
func (c *ShardedCache) PutMany(keys []CacheKey, embs [][]float32, readyAt float64) uint64 {
	if c.capacity == 0 {
		return 0
	}
	c.seq++
	for i, k := range keys {
		c.shardFor(k).put(k, embs[i], readyAt, c.seq, c.stride)
	}
	return c.seq
}

// fill copies emb into k's resident entry (truncated at the stride) without
// touching LRU order, the ready time or the counters: how an entry inserted
// before its batch's forward finished gets its value. seq is the number the
// inserting PutMany returned; a key that is no longer resident, or that a
// later insert has rewritten since, is left as it is.
func (c *ShardedCache) fill(k CacheKey, seq uint64, emb []float32) {
	s := c.shardFor(k)
	if _, idx := s.find(k); idx >= 0 && s.entries[idx].seq == seq {
		base := int(idx) * c.stride
		s.entries[idx].embLen = int32(copy(s.arena[base:base+c.stride], emb))
	}
}

// Peek reports residency and the ready time without touching LRU order or
// the hit/miss counters.
func (c *ShardedCache) Peek(k CacheKey) (readyAt float64, ok bool) {
	s := c.shardFor(k)
	_, idx := s.find(k)
	if idx < 0 {
		return 0, false
	}
	return s.entries[idx].readyAt, true
}

// Len returns the number of resident entries across all shards.
func (c *ShardedCache) Len() int {
	n := 0
	for i := range c.shards {
		n += int(c.shards[i].length)
	}
	return n
}

// Stats returns cumulative hit, miss, and eviction counts across all shards.
func (c *ShardedCache) Stats() (hits, misses, evictions int64) {
	for i := range c.shards {
		s := &c.shards[i]
		hits += s.hits
		misses += s.misses
		evictions += s.evictions
	}
	return hits, misses, evictions
}

// Shards returns the shard count the constructor settled on.
func (c *ShardedCache) Shards() int { return len(c.shards) }
