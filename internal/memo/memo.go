// Package memo is a sharded, cost-bounded memoisation cache with
// singleflight semantics: concurrent lookups of the same key share one
// computation, finished values are kept in per-shard LRU order, and
// their total cost is bounded so a long-lived process (the siptd
// daemon, or a sweep harness run in a loop) cannot leak memory through
// an ever-growing map. Cost is whatever the constructor's cost function
// says: one per entry for exp's result cache, buffer bytes for its
// materialised-trace pool.
//
// Errors are deliberately not cached: a computation that fails — most
// importantly one cancelled through its context — is forgotten, so the
// next request for the same key retries instead of replaying a stale
// ctx.Canceled forever.
package memo

import (
	"container/list"
	"sync"
	"sync/atomic"

	"sipt/internal/fault"
)

// computeFault is the cache's injection point: armed (e.g.
// "memo.compute.err:1/8"), a seeded fraction of computes fail with a
// transient error instead of running. Because errors are never cached,
// this exercises exactly the forget-and-retry path — waiters observe
// the injected error, the next Do of the key recomputes.
var computeFault = fault.NewPoint("memo.compute.err")

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      uint64 // lookups that found a live entry (including in-flight)
	Misses    uint64 // lookups that created a new entry
	Evictions uint64 // finished entries dropped to respect the capacity
	Oversize  uint64 // values returned but not kept: they cost more than a shard's budget
	Entries   int    // finished entries resident across all shards
	Cost      int64  // resident cost of those entries (never above the capacity)
}

// entry is one key's computation. The sync.Once provides singleflight:
// every caller that finds the entry waits on the same Do, and exactly
// one of them executes the compute function.
type entry[V any] struct {
	key  string
	once sync.Once
	val  V
	err  error
	// resident and cost are set under the shard lock once the compute
	// finished successfully and was kept; only resident entries count
	// toward the budget, are evictable, or are visible to Get.
	resident bool
	cost     int64
}

// shard is one lock domain: a lookup map plus an LRU list whose front
// is most recently used, and the shard's slice of the capacity. list
// elements hold *entry[V].
type shard[V any] struct {
	mu      sync.Mutex
	items   map[string]*list.Element
	order   *list.List
	budget  int64
	cost    int64
	entries int
}

// Cache is the sharded cache. The zero value is not usable; construct
// with New.
type Cache[V any] struct {
	shards    []shard[V]
	cost      func(V) int64
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	oversize  atomic.Uint64
}

// DefaultCapacity is the total cost bound used when New is given a
// non-positive capacity.
const DefaultCapacity = 4096

// defaultShards balances lock contention against per-shard capacity
// granularity; sixteen is plenty for the worker counts the scheduler
// runs.
const defaultShards = 16

// New creates a cache bounded to capacity cost units, spread over
// nshards lock domains (both fall back to defaults when non-positive).
// cost prices a finished value; nil prices every entry at 1, making
// capacity an entry count. The per-shard budget is capacity/nshards, at
// least one.
func New[V any](capacity int64, nshards int, cost func(V) int64) *Cache[V] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if nshards <= 0 {
		nshards = defaultShards
	}
	if int64(nshards) > capacity {
		nshards = int(capacity)
	}
	if cost == nil {
		cost = func(V) int64 { return 1 }
	}
	c := &Cache[V]{shards: make([]shard[V], nshards), cost: cost}
	for i := range c.shards {
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].order = list.New()
		c.shards[i].budget = capacity / int64(nshards)
	}
	return c
}

// shardFor hashes the key with FNV-1a. A fixed hash (rather than a
// per-process seeded one) keeps shard assignment — and therefore
// eviction order under pressure — identical across runs.
func (c *Cache[V]) shardFor(k string) *shard[V] {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= prime64
	}
	return &c.shards[h%uint64(len(c.shards))]
}

// Do returns the memoised value for key, computing it with compute on
// first use. Concurrent calls for the same key share one compute
// (singleflight). A compute that returns an error is not retained:
// current waiters observe the error, later callers retry. A value that
// costs more than one shard's budget is returned but not retained.
func (c *Cache[V]) Do(key string, compute func() (V, error)) (V, error) {
	s := c.shardFor(key)

	s.mu.Lock()
	el, ok := s.items[key]
	var e *entry[V]
	if ok {
		c.hits.Add(1)
		s.order.MoveToFront(el)
		e = el.Value.(*entry[V])
	} else {
		c.misses.Add(1)
		e = &entry[V]{key: key}
		el = s.order.PushFront(e)
		s.items[key] = el
	}
	s.mu.Unlock()

	e.once.Do(func() {
		if ferr := computeFault.Err(); ferr != nil {
			e.err = ferr
		} else {
			e.val, e.err = compute()
		}
		c.settle(s, el)
	})
	return e.val, e.err
}

// settle accounts el's finished compute. A failed or oversize entry is
// forgotten; a kept one joins the budget, and resident entries are
// evicted, least recently used first, until the shard fits again.
// In-flight entries carry no cost and are never evicted, so an entry
// is always still listed when its own compute settles.
func (c *Cache[V]) settle(s *shard[V], el *list.Element) {
	e := el.Value.(*entry[V])
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.err == nil {
		e.cost = c.cost(e.val)
	}
	if e.err != nil || e.cost > s.budget {
		if e.err == nil {
			c.oversize.Add(1)
		}
		s.order.Remove(el)
		delete(s.items, e.key)
		return
	}
	e.resident = true
	s.cost += e.cost
	s.entries++
	for back := s.order.Back(); back != nil && s.cost > s.budget; {
		prev := back.Prev()
		if v := back.Value.(*entry[V]); v.resident {
			s.order.Remove(back)
			delete(s.items, v.key)
			s.cost -= v.cost
			s.entries--
			c.evictions.Add(1)
		}
		back = prev
	}
}

// Get peeks at a finished entry without joining its singleflight: it
// returns (value, true) only when key's computation has already
// finished successfully and is resident, refreshing the entry's LRU
// position. In-flight or absent keys return (zero, false) immediately —
// callers that batch work (the fused sweep path) use this to partition
// keys into cached and to-compute without blocking on someone else's
// computation.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		if e := el.Value.(*entry[V]); e.resident {
			s.order.MoveToFront(el)
			return e.val, true
		}
	}
	var zero V
	return zero, false
}

// Len returns the current number of finished, resident entries.
func (c *Cache[V]) Len() int { return c.Stats().Entries }

// Stats snapshots the cache counters.
func (c *Cache[V]) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Oversize:  c.oversize.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.entries
		st.Cost += s.cost
		s.mu.Unlock()
	}
	return st
}
