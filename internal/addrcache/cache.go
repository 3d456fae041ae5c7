// Package addrcache implements the paper's central contribution
// (§3): the remote address cache. Each node keeps a bounded hash
// table correlating a universal SVD handle and a target node id with
// the base address of that shared variable in the target node's
// memory. A hit lets a GET or PUT compute the final remote address
// (base + offset) locally and go over RDMA, bypassing the target CPU;
// a miss falls back to the active-message path, which piggybacks the
// base address on its reply so the next access hits.
//
// The cache "is currently implemented as a dynamic hash table [whose]
// size is allowed to increase on demand to a fixed limit of 100
// entries" — here the limit is configurable (the paper's Figure 8
// sweeps 4, 10 and 100) with LRU eviction, plus a random-eviction
// variant used as an ablation.
package addrcache

import (
	"math/rand"

	"xlupc/internal/mem"
)

// Key identifies one cache entry: which shared object on which node.
type Key struct {
	Handle uint64 // svd.Handle.Key()
	Node   int32
}

// EvictPolicy selects the replacement policy when the cache is full.
type EvictPolicy int

const (
	// LRU evicts the least recently used entry (the default).
	LRU EvictPolicy = iota
	// RandomEvict evicts a uniformly random entry; used only to
	// ablate the choice of policy.
	RandomEvict
)

func (p EvictPolicy) String() string {
	if p == RandomEvict {
		return "random"
	}
	return "lru"
}

type entry struct {
	key        Key
	addr       mem.Addr
	epoch      uint32 // target-node incarnation that advertised addr
	prev, next *entry // LRU list; head = most recent
}

// Stats are the cache's monotonic counters.
type Stats struct {
	Hits          int64
	Misses        int64
	Inserts       int64
	Evictions     int64
	Invalidations int64 // entries dropped by eager invalidation
	Resizes       int64 // adaptive share re-apportionments
}

// Lookups is the total number of Lookup calls.
func (s Stats) Lookups() int64 { return s.Hits + s.Misses }

// HitRate is Hits over Lookups, or 0 when there were no lookups.
func (s Stats) HitRate() float64 {
	n := s.Lookups()
	if n == 0 {
		return 0
	}
	return float64(s.Hits) / float64(n)
}

// Cache is one node's remote address cache.
//
// Capacity semantics: a positive capacity bounds the entry count
// (entries are evicted per the policy); capacity 0 disables storage
// entirely — every lookup misses and inserts are dropped — which is
// how the miss-overhead experiment forces the worst case; a negative
// capacity means unbounded, which models the rejected full-table
// design of paper §2.1 for the ablation study.
type Cache struct {
	capacity int
	policy   EvictPolicy
	m        map[Key]*entry
	head     *entry // most recently used
	tail     *entry // least recently used
	rng      *rand.Rand
	stats    Stats
	adapt    *adaptState // nil = fixed capacity (the default); see adaptive.go
}

// New returns an empty cache. The seed only matters for RandomEvict.
func New(capacity int, policy EvictPolicy, seed int64) *Cache {
	return &Cache{
		capacity: capacity,
		policy:   policy,
		m:        make(map[Key]*entry),
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Capacity returns the configured capacity.
func (c *Cache) Capacity() int { return c.capacity }

// Len reports the current number of entries.
func (c *Cache) Len() int { return len(c.m) }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) pushFront(e *entry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// Lookup consults the cache. On a hit it returns the cached base
// address and refreshes the entry's recency.
func (c *Cache) Lookup(k Key) (mem.Addr, bool) {
	addr, _, ok := c.LookupEpoch(k)
	return addr, ok
}

// LookupEpoch is Lookup returning also the target-node incarnation
// epoch the address was advertised under. RDMA descriptors carry it so
// the target can NACK addresses minted by a pre-crash incarnation.
func (c *Cache) LookupEpoch(k Key) (mem.Addr, uint32, bool) {
	e, ok := c.m[k]
	if !ok {
		c.stats.Misses++
		if c.adapt != nil {
			c.adaptNote(k.Node, false)
		}
		return 0, 0, false
	}
	c.stats.Hits++
	if c.adapt != nil {
		c.adaptNote(k.Node, true)
	}
	if c.policy == LRU && c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
	return e.addr, e.epoch, true
}

// Contains reports whether k is resident, without touching the hit or
// miss counters or the entry's recency. The runtime uses it to skip
// re-inserting addresses that arrived several times on one coalesced
// reply frame.
func (c *Cache) Contains(k Key) bool {
	_, ok := c.m[k]
	return ok
}

// Insert records the base address for k, evicting if necessary.
// Re-inserting an existing key updates it in place (the address of a
// live object never changes under the pin-everything policy, but the
// update path exists for the limited-pinning extension).
func (c *Cache) Insert(k Key, addr mem.Addr) { c.InsertEpoch(k, addr, 0) }

// InsertEpoch is Insert tagging the entry with the target-node
// incarnation epoch that advertised the address. Epoch is stored per
// entry — not per node — so a base address recycled by a restarted
// allocator can never be mistaken for current just because it matches.
func (c *Cache) InsertEpoch(k Key, addr mem.Addr, epoch uint32) {
	if c.capacity == 0 {
		return
	}
	if e, ok := c.m[k]; ok {
		e.addr = addr
		e.epoch = epoch
		if c.policy == LRU && c.head != e {
			c.unlink(e)
			c.pushFront(e)
		}
		return
	}
	if c.capacity > 0 && len(c.m) >= c.capacity {
		if c.adapt != nil {
			c.adaptEvict(k.Node)
		} else {
			c.evict()
		}
	}
	e := &entry{key: k, addr: addr, epoch: epoch}
	c.m[k] = e
	c.pushFront(e)
	if c.adapt != nil {
		c.adapt.seen(k.Node)
		c.adapt.count[k.Node]++
	}
	c.stats.Inserts++
}

// dropEntry removes e from the map, the recency list and the adaptive
// residency counts — the one place every removal path funnels through.
func (c *Cache) dropEntry(e *entry) {
	c.unlink(e)
	delete(c.m, e.key)
	if c.adapt != nil {
		c.adapt.count[e.key.Node]--
	}
}

func (c *Cache) evict() {
	var victim *entry
	switch c.policy {
	case RandomEvict:
		i := c.rng.Intn(len(c.m))
		victim = c.tail
		for ; i > 0; i-- {
			victim = victim.prev
		}
	default:
		victim = c.tail
	}
	c.dropEntry(victim)
	c.stats.Evictions++
}

// Remove drops the entry for k if present. Callers remove entries
// proven stale (an RDMA NACK from a deregistered target), so a hit
// here counts as an invalidation.
func (c *Cache) Remove(k Key) {
	if e, ok := c.m[k]; ok {
		c.dropEntry(e)
		c.stats.Invalidations++
	}
}

// InvalidateHandle eagerly drops every entry for the given shared
// object, whatever the node — called when the object is deallocated
// (paper §3.1: "the address cache is eagerly invalidated when a
// shared object is deallocated"). It returns the number of entries
// dropped.
func (c *Cache) InvalidateHandle(handle uint64) int {
	n := 0
	for e := c.head; e != nil; {
		next := e.next
		if e.key.Handle == handle {
			c.dropEntry(e)
			n++
		}
		e = next
	}
	c.stats.Invalidations += int64(n)
	return n
}

// InvalidateNode drops every entry whose target is the given node —
// called when a stale-epoch NACK reveals the node crashed and
// restarted, so every address cached for it describes the previous
// incarnation's layout. It returns the number of entries dropped.
func (c *Cache) InvalidateNode(node int32) int {
	n := 0
	for e := c.head; e != nil; {
		next := e.next
		if e.key.Node == node {
			c.dropEntry(e)
			n++
		}
		e = next
	}
	c.stats.Invalidations += int64(n)
	return n
}

// Keys returns the cached keys in MRU-to-LRU order (diagnostics).
func (c *Cache) Keys() []Key {
	out := make([]Key, 0, len(c.m))
	for e := c.head; e != nil; e = e.next {
		out = append(out, e.key)
	}
	return out
}
