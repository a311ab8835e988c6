package tsdb

import (
	"container/list"
	"sync"

	"odakit/internal/schema"
)

// cacheKey identifies one cacheable query execution: the canonical query
// fingerprint plus the shard-version vector observed before the scan.
// Any write to any stripe bumps that stripe's version, so entries for
// stale data simply stop matching — invalidation is structural, no
// eviction hooks on the write path. gen extends the vector to the cold
// tier: every Offload advances the tier generation, so results computed
// against different cold-segment sets never alias even though the
// offloaded chunks no longer move any shard version.
type cacheKey struct {
	fp  string
	vv  [shardCount]uint64
	gen uint64
}

// lru is tsdb's one least-recently-used list: the query-result cache and
// the cold tier's per-segment partials both bound themselves with it.
// Every entry has a cost; put evicts from the cold end until the entries'
// total cost fits the budget, and refuses an entry that alone exceeds it.
// It takes no lock: each owner holds its own around every call.
type lru[K comparable, V any] struct {
	budget, used int64
	items        map[K]*list.Element
	order        list.List // front = most recently used
	evictions    uint64
	// evicted, when set, learns of every entry put pushed out.
	evicted func(K)
}

type lruItem[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

func newLRU[K comparable, V any](budget int64) *lru[K, V] {
	return &lru[K, V]{budget: budget, items: make(map[K]*list.Element)}
}

// get returns key's value, promoting it to most recent when promote is set.
func (c *lru[K, V]) get(key K, promote bool) (v V, ok bool) {
	el, ok := c.items[key]
	if !ok {
		return v, false
	}
	if promote {
		c.order.MoveToFront(el)
	}
	return el.Value.(*lruItem[K, V]).val, true
}

// put stores val under key as the most recent entry, replacing any value
// the key held, and evicts least recently used entries until the budget
// holds. An entry whose cost alone exceeds the budget is not stored.
func (c *lru[K, V]) put(key K, val V, cost int64) {
	if cost > c.budget {
		return
	}
	if el, ok := c.items[key]; ok {
		it := el.Value.(*lruItem[K, V])
		c.used += cost - it.cost
		it.val, it.cost = val, cost
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&lruItem[K, V]{key: key, val: val, cost: cost})
		c.used += cost
	}
	for c.used > c.budget {
		oldest := c.order.Back()
		it := oldest.Value.(*lruItem[K, V])
		c.order.Remove(oldest)
		delete(c.items, it.key)
		c.used -= it.cost
		c.evictions++
		if c.evicted != nil {
			c.evicted(it.key)
		}
	}
}

// len returns the number of entries.
func (c *lru[K, V]) len() int { return c.order.Len() }

// queryCache is a small LRU over query results. Dashboards re-issue the
// same handful of queries on refresh; when no ingest landed in between,
// the answer is a map lookup instead of a multi-shard scan.
type queryCache struct {
	mu      sync.Mutex
	entries *lru[cacheKey, *schema.Frame] // one entry costs 1
	// byFP names the most recently stored entry per query fingerprint,
	// ignoring the version vector — the serve-stale path used for
	// graceful degradation: when the store is overloaded, a possibly
	// outdated answer beats a rejected request.
	byFP   map[string]cacheKey
	hits   uint64
	misses uint64
	stale  uint64 // stale (version-ignoring) lookups served
	// staleMisses counts stale lookups that found nothing — the degraded
	// path's rejections. Without it the stale-hit ratio the dashboard
	// derives from CacheStats overstates how much shedding the cache
	// absorbed.
	staleMisses uint64
}

func newQueryCache(capacity int) *queryCache {
	c := &queryCache{entries: newLRU[cacheKey, *schema.Frame](int64(capacity)), byFP: make(map[string]cacheKey, capacity)}
	c.entries.evicted = func(k cacheKey) {
		if c.byFP[k.fp] == k {
			delete(c.byFP, k.fp)
		}
	}
	return c
}

// get returns the cached frame for key, promoting it to most recent.
// Returned frames are shared — callers must treat them as read-only.
func (c *queryCache) get(key cacheKey) (*schema.Frame, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.entries.get(key, true)
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	return f, true
}

// getStale returns the most recently stored frame for a fingerprint,
// ignoring the version vector. It may be outdated relative to current
// store contents; callers must label it as such (the HTTP API sets
// X-ODA-Stale). Not promoted in the LRU: stale reads should not keep an
// outdated entry alive over fresher traffic.
func (c *queryCache) getStale(fp string) (*schema.Frame, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.entries.get(c.byFP[fp], false)
	if !ok {
		c.staleMisses++
		return nil, false
	}
	c.stale++
	return f, true
}

// put stores a result, evicting the least recently used entry at cap.
func (c *queryCache) put(key cacheKey, f *schema.Frame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.put(key, f, 1)
	c.byFP[key.fp] = key
}

// CachedStale returns the most recently cached result for a query,
// regardless of whether the store has changed since it was computed —
// the graceful-degradation path an overloaded API serves instead of a
// rejection. The second return is false when the query is invalid,
// caching is disabled, or the query was never cached.
func (db *DB) CachedStale(q Query) (*schema.Frame, bool) {
	if db.cache == nil || q.validate() != nil {
		return nil, false
	}
	return db.cache.getStale(q.fingerprint())
}

// CacheStats reports query-result cache effectiveness.
type CacheStats struct {
	Entries int
	Hits    uint64
	Misses  uint64
	Stale   uint64 // stale (serve-degraded) lookups served
	// StaleMisses counts degraded-path lookups that found no entry for
	// the fingerprint — the overloaded queries the cache could NOT
	// absorb, which were shed with 503 instead.
	StaleMisses uint64
}

// CacheStats returns current cache counters (zero value when caching is
// disabled).
func (db *DB) CacheStats() CacheStats {
	if db.cache == nil {
		return CacheStats{}
	}
	db.cache.mu.Lock()
	defer db.cache.mu.Unlock()
	return CacheStats{
		Entries: db.cache.entries.len(), Hits: db.cache.hits, Misses: db.cache.misses,
		Stale: db.cache.stale, StaleMisses: db.cache.staleMisses,
	}
}

// coldPartialBudget bounds the bytes of frozen segment partials a cold
// tier keeps. history_scan's grouped shape — 9 one-hour segments of 80
// power_temp series grouped by metric into 15-minute buckets — freezes to
// 26 KB a segment, 233 KB in all; a filtered one (a metric, two
// components, 5-minute buckets) to 2 KB a segment. 4 MiB holds the
// grouped shape next to ~1 900 filtered partials: a 20 s history_scan
// run draws 256 filtered queries from 360 shapes, ~180 distinct, each
// over 3–9 segments.
const coldPartialBudget = 4 << 20

// partialKey names one frozen partial: a segment object (its key in the
// tier's bucket) folded under a query shape (Query.shape).
type partialKey struct{ object, shape string }

// coldPartials is a cold tier's per-segment partial cache: for each
// (segment object, query shape) the segPartial its fold produced, with the
// object version it was folded from. Entries are immutable and shared.
type coldPartials struct {
	mu           sync.Mutex
	entries      *lru[partialKey, *segPartial] // an entry costs its bytes
	hits, misses uint64
}

func newColdPartials(budget int64) *coldPartials {
	return &coldPartials{entries: newLRU[partialKey, *segPartial](budget)}
}

// get returns key's partial, promoting it, or nil.
func (c *coldPartials) get(key partialKey) *segPartial {
	c.mu.Lock()
	defer c.mu.Unlock()
	sp, _ := c.entries.get(key, true)
	return sp
}

// put caches sp under key, replacing a partial of an older version.
func (c *coldPartials) put(key partialKey, sp *segPartial) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.put(key, sp, sp.bytes()+int64(len(key.object)+len(key.shape)))
}

// note counts one cacheable segment as served from the cache or not.
func (c *coldPartials) note(hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if hit {
		c.hits++
	} else {
		c.misses++
	}
}

// PartialStats reports the per-segment partial cache of a cold tier.
type PartialStats struct {
	// Hits and Misses count the cacheable segments queries merged from a
	// frozen partial and those they read and folded.
	Hits, Misses uint64
	Evictions    uint64
	Entries      int
	Bytes        int64 // the resident partials' size, as the budget counts it
}

// stats returns the cache's counters; a nil cache (caching off) reads zero.
func (c *coldPartials) stats() PartialStats {
	if c == nil {
		return PartialStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return PartialStats{Hits: c.hits, Misses: c.misses, Evictions: c.entries.evictions,
		Entries: c.entries.len(), Bytes: c.entries.used}
}
