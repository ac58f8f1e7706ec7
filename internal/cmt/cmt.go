// Package cmt implements the Cached Mapping Table: the small on-chip SRAM
// cache of recently-used address-mapping entries that tiered wear-leveling
// (NWL, SAWL) relies on (paper Sec 3.1, Fig 6).
//
// Entries are kept in an LRU stack. Each entry covers one wear-leveling
// region, whose granularity may vary (SAWL's region-merge/split): an entry
// records the region's level (log2 of its size in initial-granularity
// units), the aligned base of the initial-region range it covers, and the
// region's physical mapping (prn, key).
//
// The cache also maintains exact first-half/second-half hit counters over
// the LRU stack — the signal SAWL's region-split trigger uses (Sec 3.2:
// "two registers to record the cache hit counts of the first and the
// second half of the CMT entries queue").
//
// The simulator lays the cache out on arrays, so a lookup is one load and
// an insert allocates nothing. Nodes live in a slab with int32 links (no
// pointers for the garbage collector to scan), and a dense cover index
// maps every initial region to the slab slot of the cached entry covering
// it, at 4 bytes per region. The index makes disjointness a contract:
// cached entries never overlap — the tiered engine caches only current IMT
// regions — and Insert panics on an entry that would overlap one.
package cmt

import (
	"fmt"
	"math"
)

// MaxCapacity is the largest entry capacity: slab slots are int32, and two
// of them are the LRU list's sentinels.
const MaxCapacity = math.MaxInt32 - 2

// Entry is one cached mapping.
type Entry struct {
	Base  uint64 // first initial-region index covered (aligned to 1<<Level)
	Level uint8  // region size = InitGranularity << Level lines
	Prn   uint64 // physical region number, in units of the region's own size
	Key   uint64 // intra-region XOR key (line-granular)
}

// Span returns the number of initial-granularity regions the entry covers.
func (e Entry) Span() uint64 { return 1 << e.Level }

// node is one slab slot: an entry and its LRU links, as slab indices. A
// free slot is chained to the next free one through next.
type node struct {
	Entry
	prev, next int32
	firstHalf  bool
}

// Slots 0 and 1 of the slab are the LRU list's head and tail sentinels, so
// a cover slot of 0 means "uncached".
const (
	head int32 = 0
	tail int32 = 1
)

// Policy selects the replacement policy. The paper's design is an LRU
// stack (its split trigger depends on the LRU-half hit counters); FIFO
// exists as an ablation baseline.
type Policy uint8

// Replacement policies.
const (
	PolicyLRU Policy = iota
	PolicyFIFO
)

// Cache is a fixed-capacity mapping cache over a fixed number of initial
// regions. Not safe for concurrent use.
type Cache struct {
	capacity int
	policy   Policy
	nodes    []node  // slab; grows on demand to capacity+2 slots
	free     int32   // first free slot (0 = none)
	cover    []int32 // initial region -> slot of the entry covering it

	size       int
	mid        int32 // first node of the second half (tail if it is empty)
	firstCount int   // nodes tagged firstHalf

	hits, misses          uint64
	firstHits, secondHits uint64
}

// New creates an LRU cache holding up to capacity entries over the
// initial-region space [0, regions).
func New(capacity int, regions uint64) *Cache {
	return NewWithPolicy(capacity, regions, PolicyLRU)
}

// NewWithPolicy creates a cache with an explicit replacement policy.
func NewWithPolicy(capacity int, regions uint64, policy Policy) *Cache {
	if capacity < 1 || capacity > MaxCapacity {
		panic(fmt.Sprintf("cmt: capacity %d outside [1, %d]", capacity, MaxCapacity))
	}
	c := &Cache{
		capacity: capacity,
		policy:   policy,
		nodes:    make([]node, 2),
		cover:    make([]int32, regions),
		mid:      tail,
	}
	c.nodes[head].next = tail
	c.nodes[tail].prev = head
	return c
}

// Len returns the current entry count.
func (c *Cache) Len() int { return c.size }

// Lookup finds the entry covering initial-region index lrn0. It records a
// hit (with its LRU-half attribution) or a miss, promotes a found entry to
// MRU, and returns it.
func (c *Cache) Lookup(lrn0 uint64) (Entry, bool) {
	i := c.cover[lrn0]
	if i == 0 {
		c.misses++
		return Entry{}, false
	}
	c.hits++
	if c.nodes[i].firstHalf {
		c.firstHits++
	} else {
		c.secondHits++
	}
	c.touch(i)
	return c.nodes[i].Entry, true
}

// Front returns the MRU entry without recording a hit or touching LRU
// order. The batched access path uses it to prove that a run of repeated
// lookups would all hit the same entry before folding them.
func (c *Cache) Front() (Entry, bool) {
	if c.size == 0 {
		return Entry{}, false
	}
	return c.nodes[c.nodes[head].next].Entry, true
}

// RepeatHits records n hits on the MRU entry at once — exactly what n
// Lookup calls resolving to the front node would record. The front node is
// always in the first half (firstCount == ceil(size/2) >= 1 and first-half
// nodes form a prefix of the stack), and promoting it is a no-op, so only
// the counters move.
func (c *Cache) RepeatHits(n uint64) {
	c.hits += n
	c.firstHits += n
}

// Peek returns the entry covering lrn0 without touching LRU order or
// counters.
func (c *Cache) Peek(lrn0 uint64) (Entry, bool) {
	if i := c.cover[lrn0]; i != 0 {
		return c.nodes[i].Entry, true
	}
	return Entry{}, false
}

// slot returns the slab slot of the cached entry (level, base), or 0.
func (c *Cache) slot(level uint8, base uint64) int32 {
	if i := c.cover[base]; i != 0 && c.nodes[i].Level == level && c.nodes[i].Base == base {
		return i
	}
	return 0
}

// Insert adds an entry at the MRU position, evicting the LRU entry if the
// cache is full. It returns the evicted entry, if any. Inserting an entry
// that already exists updates it in place (promoting it). It panics if the
// entry would overlap a different cached entry.
func (c *Cache) Insert(e Entry) (evicted Entry, wasEvicted bool) {
	if i := c.slot(e.Level, e.Base); i != 0 {
		c.nodes[i].Entry = e
		c.touch(i)
		return Entry{}, false
	}
	span := c.cover[e.Base : e.Base+e.Span()]
	for _, j := range span {
		if j != 0 {
			panic(fmt.Sprintf("cmt: entry %+v overlaps cached entry %+v", e, c.nodes[j].Entry))
		}
	}
	var i int32
	switch {
	case c.size == c.capacity:
		i = c.nodes[tail].prev
		evicted, wasEvicted = c.nodes[i].Entry, true
		c.unlink(i)
	case c.free != 0:
		i = c.free
		c.free = c.nodes[i].next
	default:
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, node{})
	}
	c.nodes[i] = node{Entry: e, firstHalf: true}
	for k := range span {
		span[k] = i
	}
	c.pushFront(i)
	c.size++
	c.firstCount++
	c.rebalance()
	return evicted, wasEvicted
}

// Remove deletes the entry with the given level and base, reporting whether
// it was present.
func (c *Cache) Remove(level uint8, base uint64) bool {
	i := c.slot(level, base)
	if i == 0 {
		return false
	}
	c.unlink(i)
	c.nodes[i].next = c.free
	c.free = i
	return true
}

// Update rewrites the mapping of an existing entry in place without
// changing LRU order. Returns false if absent.
func (c *Cache) Update(level uint8, base uint64, prn, key uint64) bool {
	i := c.slot(level, base)
	if i == 0 {
		return false
	}
	c.nodes[i].Prn = prn
	c.nodes[i].Key = key
	return true
}

// Entries returns a snapshot of cached entries in MRU-to-LRU order.
func (c *Cache) Entries() []Entry {
	out := make([]Entry, 0, c.size)
	for i := c.nodes[head].next; i != tail; i = c.nodes[i].next {
		out = append(out, c.nodes[i].Entry)
	}
	return out
}

// unlink takes slot i out of the LRU list and the cover index and fixes
// the half bookkeeping; the caller reuses or frees the slot.
func (c *Cache) unlink(i int32) {
	c.detach(i)
	n := &c.nodes[i]
	if n.firstHalf {
		c.firstCount--
	}
	c.size--
	clear(c.cover[n.Base : n.Base+n.Span()])
	c.rebalance()
}

// detach unlinks slot i from its neighbours, moving mid past it.
func (c *Cache) detach(i int32) {
	n := &c.nodes[i]
	if c.mid == i {
		c.mid = n.next
	}
	c.nodes[n.prev].next = n.next
	c.nodes[n.next].prev = n.prev
}

// pushFront links slot i as the MRU node.
func (c *Cache) pushFront(i int32) {
	first := c.nodes[head].next
	c.nodes[i].prev = head
	c.nodes[i].next = first
	c.nodes[first].prev = i
	c.nodes[head].next = i
}

// touch promotes slot i to MRU (LRU policy only), keeping the half split
// exact.
func (c *Cache) touch(i int32) {
	if c.policy == PolicyFIFO || c.nodes[head].next == i {
		return // FIFO: hits do not reorder
	}
	c.detach(i)
	c.pushFront(i)
	if n := &c.nodes[i]; !n.firstHalf {
		n.firstHalf = true
		c.firstCount++
	}
	c.rebalance()
}

// rebalance restores the invariant firstCount == ceil(size/2) by demoting
// or promoting nodes at the half boundary. Each caller changes counts by at
// most one, so this loop runs at most once per operation.
func (c *Cache) rebalance() {
	target := (c.size + 1) / 2
	for c.firstCount > target {
		// Demote the last first-half node, just before mid.
		b := c.nodes[c.mid].prev
		c.nodes[b].firstHalf = false
		c.firstCount--
		c.mid = b
	}
	for c.firstCount < target {
		// Promote mid, the first second-half node.
		c.nodes[c.mid].firstHalf = true
		c.firstCount++
		c.mid = c.nodes[c.mid].next
	}
}

// Stats exposes the hit counters.
type Stats struct {
	Hits       uint64
	Misses     uint64
	FirstHits  uint64
	SecondHits uint64
}

// Stats returns cumulative counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses, FirstHits: c.firstHits, SecondHits: c.secondHits}
}

// ResetHalfCounters clears the sub-queue hit counters (the split trigger
// samples them per observation interval).
func (c *Cache) ResetHalfCounters() {
	c.firstHits, c.secondHits = 0, 0
}

// HitRate returns the cumulative hit rate (1 when no lookups yet).
func (c *Cache) HitRate() float64 {
	t := c.hits + c.misses
	if t == 0 {
		return 1
	}
	return float64(c.hits) / float64(t)
}

// AvgRegionUnits returns the average region size (in initial-granularity
// units) over cached entries, 0 when empty — the quantity Fig 13/14 plot
// (scaled by the initial granularity).
func (c *Cache) AvgRegionUnits() float64 {
	if c.size == 0 {
		return 0
	}
	var sum uint64
	for i := c.nodes[head].next; i != tail; i = c.nodes[i].next {
		sum += c.nodes[i].Span()
	}
	return float64(sum) / float64(c.size)
}

// String implements fmt.Stringer.
func (c *Cache) String() string {
	return fmt.Sprintf("cmt{%d/%d entries, hit=%.1f%%}", c.size, c.capacity, 100*c.HitRate())
}

// checkInvariants validates the LRU list, its half split, the free list
// and the cover index (test hook).
func (c *Cache) checkInvariants() error {
	live := make([]bool, len(c.nodes))
	want := make([]int32, len(c.cover))
	count, first := 0, 0
	sawMid := false
	for i := c.nodes[head].next; i != tail; i = c.nodes[i].next {
		if i == head || live[i] {
			return fmt.Errorf("LRU list loops at slot %d", i)
		}
		if p := c.nodes[i].prev; c.nodes[p].next != i {
			return fmt.Errorf("slot %d: prev %d links to %d", i, p, c.nodes[p].next)
		}
		live[i] = true
		count++
		if i == c.mid {
			sawMid = true
		}
		if c.nodes[i].firstHalf {
			if sawMid {
				return fmt.Errorf("first-half node after mid")
			}
			first++
		} else if !sawMid {
			return fmt.Errorf("second-half node before mid")
		}
		e := c.nodes[i].Entry
		for r := e.Base; r < e.Base+e.Span(); r++ {
			if want[r] != 0 {
				return fmt.Errorf("entries %+v and %+v overlap", e, c.nodes[want[r]].Entry)
			}
			want[r] = i
		}
	}
	if count != c.size {
		return fmt.Errorf("size %d, counted %d", c.size, count)
	}
	if first != c.firstCount {
		return fmt.Errorf("firstCount %d, counted %d", c.firstCount, first)
	}
	if first != (c.size+1)/2 {
		return fmt.Errorf("first half %d, want %d of %d", first, (c.size+1)/2, c.size)
	}
	if !sawMid && c.mid != tail {
		return fmt.Errorf("mid %d is not a live node", c.mid)
	}
	for r := range c.cover {
		if c.cover[r] != want[r] {
			return fmt.Errorf("cover[%d] = %d, want %d", r, c.cover[r], want[r])
		}
	}
	frees := 0
	for i := c.free; i != 0; i = c.nodes[i].next {
		if i == tail || int(i) >= len(c.nodes) || live[i] {
			return fmt.Errorf("free slot %d is a sentinel, out of the slab or linked", i)
		}
		live[i] = true
		frees++
	}
	if 2+count+frees != len(c.nodes) {
		return fmt.Errorf("slab of %d slots holds %d live and %d free", len(c.nodes), count, frees)
	}
	if len(c.nodes) > c.capacity+2 {
		return fmt.Errorf("slab of %d slots exceeds capacity %d", len(c.nodes), c.capacity)
	}
	return nil
}
