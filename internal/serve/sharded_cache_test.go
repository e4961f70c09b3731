package serve

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// Put inserts (or refreshes) one embedding: a PutMany of one key, the
// single-key op the oracle tests drive.
func (c *ShardedCache) Put(k CacheKey, emb []float32, readyAt float64) {
	c.PutMany([]CacheKey{k}, [][]float32{emb}, readyAt)
}

// traceEmb builds a distinguishable embedding for a key at a given put
// ordinal (fresh slice per call — the legacy cache retains it).
func traceEmb(k CacheKey, op, stride int) []float32 {
	e := make([]float32, stride)
	for i := range e {
		e[i] = float32(int(k.Vertex)*1000 + k.Version*100 + op + i)
	}
	return e
}

// The 1-shard ≡ legacy-LRU property: on any request trace, a 1-shard
// ShardedCache must reproduce the legacy EmbeddingCache's hit/miss/eviction
// counters, resident set, per-entry ready times, per-lookup results, and
// stored values exactly. The trace mixes single-key ops with GetMany/PutMany
// batches (applied to the oracle as the equivalent sequential ops), across
// capacities that force heavy eviction.
func TestShardedCacheMatchesLegacyLRU(t *testing.T) {
	const stride = 6
	const vertices = 40
	for _, capacity := range []int{1, 3, 8, 17, 64} {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			rng := tensor.NewRNG(uint64(1000 + capacity))
			legacy := NewEmbeddingCache(capacity)
			sharded := NewShardedCache(capacity, 1, stride)
			if got := sharded.shardCount(); got != 1 {
				t.Fatalf("asked for 1 shard, got %d", got)
			}
			randKey := func() CacheKey {
				return CacheKey{
					Vertex:  int32(rng.Uint64() % vertices),
					Version: 1 + int(rng.Uint64()%2),
				}
			}
			keys := make([]CacheKey, 0, 8)
			ready := make([]float64, 8)
			hit := make([]bool, 8)
			embs := make([][]float32, 8)
			for op := 0; op < 4000; op++ {
				switch rng.Uint64() % 5 {
				case 0: // Put
					k := randKey()
					at := float64(op)
					legacy.Put(k, traceEmb(k, op, stride), at)
					sharded.Put(k, traceEmb(k, op, stride), at)
				case 1, 2: // Get
					k := randKey()
					le, lr, lok := legacy.Get(k)
					se, sr, sok := sharded.get(k)
					if lok != sok || lr != sr {
						t.Fatalf("op %d: Get(%v) legacy (%v,%v) sharded (%v,%v)", op, k, lr, lok, sr, sok)
					}
					if lok {
						for i := range le {
							if le[i] != se[i] {
								t.Fatalf("op %d: Get(%v) value diverged at %d: %v vs %v", op, k, i, le, se)
							}
						}
					}
				case 3: // GetMany vs sequential legacy Gets (duplicates included)
					n := 1 + int(rng.Uint64()%8)
					keys = keys[:0]
					for i := 0; i < n; i++ {
						keys = append(keys, randKey())
					}
					sharded.GetMany(keys, ready, hit, embs)
					for i, k := range keys {
						le, lr, lok := legacy.Get(k)
						if lok != hit[i] || (lok && lr != ready[i]) {
							t.Fatalf("op %d: GetMany[%d]=%v legacy (%v,%v) sharded (%v,%v)",
								op, i, k, lr, lok, ready[i], hit[i])
						}
						if lok && le[0] != embs[i][0] {
							t.Fatalf("op %d: GetMany[%d] value %v vs %v", op, i, embs[i][0], le[0])
						}
					}
				case 4: // PutMany vs sequential legacy Puts (one shared ready time)
					n := 1 + int(rng.Uint64()%8)
					keys = keys[:0]
					at := float64(op) + 0.5
					for i := 0; i < n; i++ {
						k := randKey()
						keys = append(keys, k)
						embs[i] = traceEmb(k, op, stride)
						legacy.Put(k, traceEmb(k, op, stride), at)
					}
					sharded.PutMany(keys, embs[:n], at)
				}
			}
			lh, lm, le := legacy.Stats()
			sh, sm, se := sharded.stats()
			if lh != sh || lm != sm || le != se {
				t.Fatalf("counters diverged: legacy h%d m%d e%d, sharded h%d m%d e%d", lh, lm, le, sh, sm, se)
			}
			if legacy.Len() != sharded.count() {
				t.Fatalf("resident count diverged: %d vs %d", legacy.Len(), sharded.count())
			}
			// Resident sets must match key for key (Peek leaves counters and
			// LRU order untouched on both sides).
			for v := int32(0); v < vertices; v++ {
				for ver := 1; ver <= 2; ver++ {
					k := CacheKey{Vertex: v, Version: ver}
					lr, lok := legacy.Peek(k)
					sr, sok := sharded.peek(k)
					if lok != sok || lr != sr {
						t.Fatalf("resident set diverged at %v: legacy (%v,%v) sharded (%v,%v)", k, lr, lok, sr, sok)
					}
				}
			}
		})
	}
}

// Batch operations are sequential operations at every shard count: GetMany
// and PutMany must leave per-lookup results, counters, LRU order (observed
// through later hits and eviction victims) and the resident set exactly
// where a twin cache fed the same keys one at a time leaves them. Keys span
// far more than the capacity, so eviction runs on nearly every put.
func TestShardedCacheBatchOpsMatchSequential(t *testing.T) {
	const stride = 5
	const vertices = 48
	for _, shards := range []int{2, 4, 8} {
		for _, capacity := range []int{3, 17, 64} {
			t.Run(fmt.Sprintf("shards%d/cap%d", shards, capacity), func(t *testing.T) {
				rng := tensor.NewRNG(uint64(100*shards + capacity))
				batched := NewShardedCache(capacity, shards, stride)
				seq := NewShardedCache(capacity, shards, stride)
				randKey := func() CacheKey {
					return CacheKey{Vertex: int32(rng.Uint64() % vertices), Version: 1 + int(rng.Uint64()%2)}
				}
				checkResident := func(op int) {
					t.Helper()
					if batched.count() != seq.count() {
						t.Fatalf("op %d: resident count %d batched, %d sequential", op, batched.count(), seq.count())
					}
					for v := int32(0); v < vertices; v++ {
						for ver := 1; ver <= 2; ver++ {
							k := CacheKey{Vertex: v, Version: ver}
							br, bok := batched.peek(k)
							sr, sok := seq.peek(k)
							if bok != sok || br != sr {
								t.Fatalf("op %d: resident set diverged at %v: batched (%v,%v) sequential (%v,%v)",
									op, k, br, bok, sr, sok)
							}
						}
					}
				}
				const maxBatch = 12
				keys := make([]CacheKey, 0, maxBatch)
				ready := make([]float64, maxBatch)
				hit := make([]bool, maxBatch)
				embs := make([][]float32, maxBatch)
				for op := 0; op < 3000; op++ {
					n := 1 + int(rng.Uint64()%maxBatch)
					keys = keys[:0]
					for i := 0; i < n; i++ {
						keys = append(keys, randKey())
					}
					if rng.Uint64()%2 == 0 {
						batched.GetMany(keys, ready, hit, embs)
						for i, k := range keys {
							se, sr, sok := seq.get(k)
							if sok != hit[i] || sr != ready[i] {
								t.Fatalf("op %d: GetMany[%d]=%v batched (%v,%v) sequential (%v,%v)",
									op, i, k, ready[i], hit[i], sr, sok)
							}
							if sok && !slices.Equal(se, embs[i]) {
								t.Fatalf("op %d: GetMany[%d]=%v value %v, sequential %v", op, i, k, embs[i], se)
							}
						}
					} else {
						at := float64(op)
						for i, k := range keys {
							embs[i] = traceEmb(k, op, stride)
						}
						batched.PutMany(keys, embs[:n], at)
						for i, k := range keys {
							seq.Put(k, embs[i], at)
						}
					}
					if op%250 == 0 {
						checkResident(op)
					}
				}
				bh, bm, be := batched.stats()
				sh, sm, se := seq.stats()
				if bh != sh || bm != sm || be != se {
					t.Fatalf("counters diverged: batched h%d m%d e%d, sequential h%d m%d e%d", bh, bm, be, sh, sm, se)
				}
				if be == 0 {
					t.Fatal("trace never evicted")
				}
				checkResident(-1)
			})
		}
	}
}

// Shard-count plumbing: the constructor rounds shards down to a power of
// two, clamps to capacity, spreads capacity with remainder, and a filled
// cache reaches exactly its total capacity.
func TestShardedCacheShardClamp(t *testing.T) {
	cases := []struct{ capacity, shards, want int }{
		{10, 64, 8}, // clamped to capacity, rounded down to pow2
		{4, 3, 2},
		{100, 4, 4},
		{7, 0, 1}, // 0 picks 1
	}
	for _, c := range cases {
		got := NewShardedCache(c.capacity, c.shards, 4).shardCount()
		if got != c.want {
			t.Fatalf("NewShardedCache(cap=%d, shards=%d) settled on %d shards, want %d",
				c.capacity, c.shards, got, c.want)
		}
	}
	// A negative size is a bug, not a value to clamp: it panics quoting the
	// rule Config.Validate states.
	for _, c := range []struct {
		capacity, shards, stride int
		want                     string
	}{
		{3, -2, 4, "serve: CacheShards -2: negative (0 means 1)"},
		{-1, 1, 4, "serve: CacheSize -1: negative (0 disables the cache)"},
		{3, 1, -4, "serve: cache stride -4: negative"},
	} {
		func() {
			defer func() {
				if r := recover(); r != c.want {
					t.Fatalf("NewShardedCache(%d, %d, %d) panicked with %v, want %q", c.capacity, c.shards, c.stride, r, c.want)
				}
			}()
			NewShardedCache(c.capacity, c.shards, c.stride)
		}()
	}
	// Remainder spread: capacity 10 over 8 shards still holds 10 entries.
	c := NewShardedCache(10, 8, 4)
	for v := int32(0); v < 1000; v++ {
		c.Put(CacheKey{Vertex: v, Version: 1}, []float32{1, 2, 3, 4}, 0)
	}
	if c.count() != 10 {
		t.Fatalf("capacity-10 cache holds %d entries after 1000 puts", c.count())
	}
	// Disabled cache: every Get misses, Put is a no-op.
	off := NewShardedCache(0, 4, 4)
	off.Put(CacheKey{Vertex: 1, Version: 1}, []float32{1}, 0)
	if _, _, ok := off.get(CacheKey{Vertex: 1, Version: 1}); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if h, m, _ := off.stats(); h != 0 || m != 1 {
		t.Fatalf("disabled cache counters h%d m%d, want h0 m1", h, m)
	}
	if off.count() != 0 {
		t.Fatal("disabled cache holds entries")
	}
}

// Ownership rule: Put copies into the arena, so mutating (or reusing) the
// caller's buffer afterwards cannot corrupt the resident entry — the
// slice-retention footgun the legacy cache documents away is fixed
// structurally here. Covers both the insert and the refresh path.
func TestShardedCachePutCopies(t *testing.T) {
	c := NewShardedCache(8, 2, 4)
	k := CacheKey{Vertex: 5, Version: 1}
	buf := []float32{1, 2, 3, 4}
	c.Put(k, buf, 1.0)
	buf[0] = -99 // caller reuses its buffer
	if emb, _, ok := c.get(k); !ok || emb[0] != 1 {
		t.Fatalf("insert retained the caller's slice: got %v", emb)
	}
	buf2 := []float32{9, 8, 7, 6}
	c.Put(k, buf2, 2.0) // refresh
	buf2[1] = -99
	emb, at, ok := c.get(k)
	if !ok || emb[1] != 8 || at != 2.0 {
		t.Fatalf("refresh retained the caller's slice: got %v at %v", emb, at)
	}
}

// Steady-state cache ops must not allocate: Get, Put (insert-with-eviction
// and refresh), and the batch APIs all run over preallocated shard state.
func TestShardedCacheZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation gate is skipped under -race")
	}
	const stride = 8
	c := NewShardedCache(32, 4, stride)
	emb := make([]float32, stride)
	keys := make([]CacheKey, 8)
	ready := make([]float64, 8)
	hit := make([]bool, 8)
	v := int32(0)
	iterate := func() {
		for i := range keys {
			keys[i] = CacheKey{Vertex: v % 100, Version: 1}
			v++
		}
		c.GetMany(keys, ready, hit, nil)
		for _, k := range keys {
			c.Put(k, emb, 1.0)
		}
		c.get(keys[0])
	}
	for i := 0; i < 50; i++ {
		iterate()
	}
	if a := testing.AllocsPerRun(20, iterate); a != 0 {
		t.Fatalf("cache steady state allocated %.1f times per run, want 0", a)
	}
}
