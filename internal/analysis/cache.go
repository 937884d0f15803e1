package analysis

import (
	"container/list"
	"sync"

	"repro/internal/task"
	"repro/internal/workload"
)

// DefaultCacheEntries is the cache capacity when NewCache is given a
// non-positive size. A default Figure-6 sweep holds 9 intervals × 20
// sets = 180 Products entries plus 9 interval batches, and each idle
// Products entry is small (the heavy slices are lazy), so the default
// keeps a whole three-scenario session resident without rebuilds.
const DefaultCacheEntries = 1024

// Cache is a size-bounded, concurrency-safe LRU shared by sweep workers.
// It holds two kinds of entry in one recency list under one capacity:
//
//   - Products, keyed by (set fingerprint, options): the same generated
//     set simulated under several approaches and fault scenarios derives
//     its offline analysis once (Get).
//   - Interval batches, keyed by the generator's whole configuration,
//     seed, interval and stopping rule: the three Figure-6 scenario
//     sweeps of one seed draw the same sets, so each interval's
//     rejection sampling runs once per session (Interval).
//
// Hits and Misses count Get lookups only; Entries, Evictions and
// Capacity cover both kinds. Values of either kind are shared read-only
// by every caller.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used; values are *entry
	entries   map[string]*list.Element
	batches   map[intervalKey]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

// entry is one LRU element: a Products entry (prods, keyed by key) or an
// interval batch (batch, keyed by batchKey).
type entry struct {
	key      string
	prods    *Products
	batchKey intervalKey
	batch    *intervalBatch
}

// intervalKey identifies one interval draw: every argument of
// workload.NewGenerator(cfg, seed).GenerateInterval(iv, want, max).
type intervalKey struct {
	cfg           workload.Config
	seed          uint64
	iv            workload.Interval
	want, maxCand int
}

// intervalBatch is a lazily drawn interval: the first caller generates
// under once, concurrent callers of the same key wait for its result.
type intervalBatch struct {
	once sync.Once
	res  workload.IntervalResult
}

// NewCache builds a Cache holding at most capacity entries. Zero means
// DefaultCacheEntries; a negative capacity disables memoization — Get
// then builds fresh Products on every call (and counts only misses) and
// Interval generates afresh, which is the pre-memoization behavior for
// benchmarking the cache itself.
func NewCache(capacity int) *Cache {
	if capacity == 0 {
		capacity = DefaultCacheEntries
	}
	c := &Cache{capacity: capacity, order: list.New()}
	if capacity > 0 {
		c.entries = make(map[string]*list.Element, capacity)
		c.batches = make(map[intervalKey]*list.Element)
	}
	return c
}

// Get returns the memoized Products for (s, opts), inserting a fresh lazy
// entry on miss and evicting the least recently used entry beyond
// capacity. Distinct *task.Set values with equal fingerprints share one
// entry (the entry retains the set passed at insertion time). The lookup
// itself is cheap — products are computed lazily outside the cache lock,
// so a miss never stalls other workers on analysis work.
func (c *Cache) Get(s *task.Set, opts Options) *Products {
	if c.capacity < 0 { // memoization disabled
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		return New(s, opts)
	}
	key := opts.key() + "#" + Fingerprint(s)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		return el.Value.(*entry).prods
	}
	c.misses++
	prods := New(s, opts)
	c.entries[key] = c.pushLocked(&entry{key: key, prods: prods})
	return prods
}

// Interval returns the memoized result of
// workload.NewGenerator(cfg, seed).GenerateInterval(iv, want, maxCandidates).
// The draw is a pure function of those arguments, so sweeps that differ
// only in fault scenario, approaches or power model share one batch.
// Generation runs outside the cache lock under the entry's sync.Once:
// concurrent callers of one key draw once, and a miss never stalls
// workers on other keys. The returned sets are shared; do not mutate.
func (c *Cache) Interval(cfg workload.Config, seed uint64, iv workload.Interval, want, maxCandidates int) workload.IntervalResult {
	if c.capacity < 0 { // memoization disabled
		return workload.NewGenerator(cfg, seed).GenerateInterval(iv, want, maxCandidates)
	}
	key := intervalKey{cfg: cfg, seed: seed, iv: iv, want: want, maxCand: maxCandidates}
	c.mu.Lock()
	var b *intervalBatch
	if el, ok := c.batches[key]; ok {
		c.order.MoveToFront(el)
		b = el.Value.(*entry).batch
	} else {
		b = &intervalBatch{}
		c.batches[key] = c.pushLocked(&entry{batchKey: key, batch: b})
	}
	c.mu.Unlock()
	b.once.Do(func() {
		b.res = workload.NewGenerator(cfg, seed).GenerateInterval(iv, want, maxCandidates)
	})
	return b.res
}

// pushLocked inserts e as the most recently used entry and evicts the
// least recently used entries, of either kind, beyond capacity. c.mu
// must be held.
func (c *Cache) pushLocked(e *entry) *list.Element {
	el := c.order.PushFront(e)
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		if old := oldest.Value.(*entry); old.batch != nil {
			delete(c.batches, old.batchKey)
		} else {
			delete(c.entries, old.key)
		}
		c.evictions++
	}
	return el
}

// CacheStats is a snapshot of cache effectiveness counters. Hits and
// Misses count Products lookups; Entries and Evictions include interval
// batches.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// Stats returns a consistent snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.order.Len(),
		Capacity:  c.capacity,
	}
}
