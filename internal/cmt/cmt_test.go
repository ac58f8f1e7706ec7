package cmt

import (
	"fmt"
	"testing"

	"nvmwear/internal/rng"
)

// testRegions is the initial-region space of the tests' caches.
const testRegions = 64

func TestBasicHitMiss(t *testing.T) {
	c := New(4, testRegions)
	if _, ok := c.Lookup(5); ok {
		t.Fatal("hit on empty cache")
	}
	c.Insert(Entry{Base: 5, Level: 0, Prn: 50, Key: 3})
	e, ok := c.Lookup(5)
	if !ok || e.Prn != 50 || e.Key != 3 {
		t.Fatalf("lookup: %+v ok=%v", e, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLevelCoverage(t *testing.T) {
	c := New(4, testRegions)
	// A level-2 entry at base 8 covers initial regions 8..11.
	c.Insert(Entry{Base: 8, Level: 2, Prn: 2, Key: 7})
	for lrn := uint64(8); lrn < 12; lrn++ {
		if e, ok := c.Lookup(lrn); !ok || e.Base != 8 {
			t.Fatalf("lrn %d not covered: %+v ok=%v", lrn, e, ok)
		}
	}
	if _, ok := c.Lookup(12); ok {
		t.Fatal("lrn 12 wrongly covered")
	}
	if _, ok := c.Lookup(7); ok {
		t.Fatal("lrn 7 wrongly covered")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(3, testRegions)
	for i := uint64(0); i < 3; i++ {
		c.Insert(Entry{Base: i})
	}
	c.Lookup(0) // 0 becomes MRU; LRU is 1
	ev, was := c.Insert(Entry{Base: 9})
	if !was || ev.Base != 1 {
		t.Fatalf("evicted %+v (was=%v), want base 1", ev, was)
	}
	if _, ok := c.Peek(1); ok {
		t.Fatal("evicted entry still present")
	}
}

func TestInsertExistingUpdates(t *testing.T) {
	c := New(2, testRegions)
	c.Insert(Entry{Base: 1, Prn: 10})
	c.Insert(Entry{Base: 2, Prn: 20})
	if _, was := c.Insert(Entry{Base: 1, Prn: 99}); was {
		t.Fatal("re-insert evicted")
	}
	if e, _ := c.Peek(1); e.Prn != 99 {
		t.Fatal("re-insert did not update")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestRemoveAndUpdate(t *testing.T) {
	c := New(4, testRegions)
	c.Insert(Entry{Base: 4, Level: 1, Prn: 1, Key: 2})
	if !c.Update(1, 4, 9, 8) {
		t.Fatal("update failed")
	}
	if e, _ := c.Peek(4); e.Prn != 9 || e.Key != 8 {
		t.Fatal("update not applied")
	}
	if !c.Remove(1, 4) {
		t.Fatal("remove failed")
	}
	if c.Remove(1, 4) {
		t.Fatal("double remove succeeded")
	}
	if c.Len() != 0 {
		t.Fatal("len after remove")
	}
	if c.Update(1, 4, 0, 0) {
		t.Fatal("update on absent entry")
	}
}

func TestHalfCounters(t *testing.T) {
	c := New(4, testRegions)
	for i := uint64(0); i < 4; i++ {
		c.Insert(Entry{Base: i})
	}
	// MRU order: 3,2,1,0. First half = {3,2}.
	c.Lookup(3)
	c.Lookup(2)
	c.Lookup(0)
	st := c.Stats()
	if st.FirstHits != 2 || st.SecondHits != 1 {
		t.Fatalf("half hits: %+v", st)
	}
	c.ResetHalfCounters()
	if st := c.Stats(); st.FirstHits != 0 || st.SecondHits != 0 {
		t.Fatal("reset failed")
	}
}

// refCache is a slice-based reference model of the cache: its entries in
// MRU-to-LRU order, found by linear scans, plus the hit counters.
type refCache struct {
	entries []Entry
	cap     int
	lru     bool // promote on hit (PolicyLRU); FIFO never reorders
	stats   Stats
}

// covering returns the index of the entry covering lrn0, or -1.
func (r *refCache) covering(lrn0 uint64) int {
	for i, e := range r.entries {
		if lrn0 >= e.Base && lrn0 < e.Base+e.Span() {
			return i
		}
	}
	return -1
}

// exact returns the index of the entry (level, base), or -1.
func (r *refCache) exact(level uint8, base uint64) int {
	for i, e := range r.entries {
		if e.Level == level && e.Base == base {
			return i
		}
	}
	return -1
}

func (r *refCache) promote(i int) {
	if r.lru {
		e := r.entries[i]
		copy(r.entries[1:i+1], r.entries[:i])
		r.entries[0] = e
	}
}

func (r *refCache) lookup(lrn0 uint64) (Entry, bool) {
	i := r.covering(lrn0)
	if i < 0 {
		r.stats.Misses++
		return Entry{}, false
	}
	r.stats.Hits++
	if i < (len(r.entries)+1)/2 {
		r.stats.FirstHits++
	} else {
		r.stats.SecondHits++
	}
	e := r.entries[i]
	r.promote(i)
	return e, true
}

func (r *refCache) insert(e Entry) (evicted Entry, wasEvicted bool) {
	if i := r.exact(e.Level, e.Base); i >= 0 {
		r.entries[i] = e
		r.promote(i)
		return Entry{}, false
	}
	if len(r.entries) == r.cap {
		evicted, wasEvicted = r.entries[len(r.entries)-1], true
		r.entries = r.entries[:len(r.entries)-1]
	}
	r.entries = append([]Entry{e}, r.entries...)
	return evicted, wasEvicted
}

func (r *refCache) remove(level uint8, base uint64) bool {
	i := r.exact(level, base)
	if i < 0 {
		return false
	}
	r.entries = append(r.entries[:i], r.entries[i+1:]...)
	return true
}

func (r *refCache) update(level uint8, base uint64, prn, key uint64) bool {
	i := r.exact(level, base)
	if i < 0 {
		return false
	}
	r.entries[i].Prn, r.entries[i].Key = prn, key
	return true
}

// cmtOp is one step of the model check: an operation, an initial region
// in [0, testRegions), a level in 0..3 and mapping bits.
type cmtOp struct {
	kind   uint8
	region uint64
	level  uint8
	val    uint64
}

// opFromBytes decodes a step from three fuzz bytes.
func opFromBytes(b []byte) cmtOp {
	return cmtOp{kind: b[0], region: uint64(b[1]) % testRegions, level: b[2] % 4, val: uint64(b[2]) >> 2}
}

// step applies op to the cache and the model, and returns the first
// disagreement between them or broken invariant. Inserts first remove
// every cached entry the new one would overlap from both sides, as the
// tiered engine does; an entry with the same level and base stays, so
// the insert updates it in place.
func step(c *Cache, ref *refCache, op cmtOp) error {
	span := uint64(1) << op.level
	base := op.region &^ (span - 1)
	if op.val&1 == 1 {
		// Aim removes and updates at the covering entry, which exists
		// far more often than an arbitrary (level, base).
		if i := ref.covering(op.region); i >= 0 {
			base, op.level = ref.entries[i].Base, ref.entries[i].Level
		}
	}
	switch op.kind % 8 {
	case 0, 1, 2:
		want, wantHit := ref.lookup(op.region)
		if got, hit := c.Lookup(op.region); got != want || hit != wantHit {
			return fmt.Errorf("Lookup(%d) = %+v, %v; want %+v, %v", op.region, got, hit, want, wantHit)
		}
	case 3:
		var want Entry
		i := ref.covering(op.region)
		if i >= 0 {
			want = ref.entries[i]
		}
		if got, hit := c.Peek(op.region); got != want || hit != (i >= 0) {
			return fmt.Errorf("Peek(%d) = %+v, %v; want %+v", op.region, got, hit, want)
		}
	case 4, 5:
		e := Entry{Base: base, Level: op.level, Prn: op.val, Key: op.val * 7}
		for i := 0; i < len(ref.entries); {
			o := ref.entries[i]
			if o.Base < base+span && base < o.Base+o.Span() && (o.Base != base || o.Level != op.level) {
				if !c.Remove(o.Level, o.Base) || !ref.remove(o.Level, o.Base) {
					return fmt.Errorf("could not remove overlapping %+v", o)
				}
				continue
			}
			i++
		}
		wantEv, wantWas := ref.insert(e)
		if ev, was := c.Insert(e); ev != wantEv || was != wantWas {
			return fmt.Errorf("Insert(%+v) evicted %+v, %v; want %+v, %v", e, ev, was, wantEv, wantWas)
		}
	case 6:
		if got, want := c.Remove(op.level, base), ref.remove(op.level, base); got != want {
			return fmt.Errorf("Remove(%d, %d) = %v, want %v", op.level, base, got, want)
		}
	case 7:
		if got, want := c.Update(op.level, base, op.val, ^op.val), ref.update(op.level, base, op.val, ^op.val); got != want {
			return fmt.Errorf("Update(%d, %d) = %v, want %v", op.level, base, got, want)
		}
	}
	if got := c.Stats(); got != ref.stats {
		return fmt.Errorf("stats %+v, want %+v", got, ref.stats)
	}
	got := c.Entries()
	if len(got) != len(ref.entries) || c.Len() != len(ref.entries) {
		return fmt.Errorf("%d entries (Len %d), want %d", len(got), c.Len(), len(ref.entries))
	}
	for i := range got {
		if got[i] != ref.entries[i] {
			return fmt.Errorf("entry %d is %+v, want %+v", i, got[i], ref.entries[i])
		}
	}
	if front, ok := c.Front(); ok != (len(got) > 0) || (ok && front != got[0]) {
		return fmt.Errorf("Front() = %+v, %v with %d entries", front, ok, len(got))
	}
	return c.checkInvariants()
}

// runSteps drives a cache and its model through ops; the policy and a
// capacity in 1..24 come from the first byte.
func runSteps(t *testing.T, setup byte, ops []cmtOp) {
	t.Helper()
	policy := Policy(setup & 1)
	capacity := 1 + int(setup>>1)%24
	c := NewWithPolicy(capacity, testRegions, policy)
	ref := &refCache{cap: capacity, lru: policy == PolicyLRU}
	for i, op := range ops {
		if err := step(c, ref, op); err != nil {
			t.Fatalf("policy %d, capacity %d, op %d %+v: %v", policy, capacity, i, op, err)
		}
	}
}

// TestAgainstReferenceModel checks the cache against refCache over long
// random runs with entries at levels 0–3 over 64 regions: lookups with
// their LRU-half attribution, span writes and clears in the cover index,
// free-slot reuse, evictions of multi-region entries, and both policies.
func TestAgainstReferenceModel(t *testing.T) {
	src := rng.New(42)
	for _, setup := range []byte{32, 33, 2, 3, 14, 47} {
		ops := make([]cmtOp, 20000)
		for i := range ops {
			ops[i] = opFromBytes([]byte{byte(src.Uint64()), byte(src.Uint64()), byte(src.Uint64())})
		}
		runSteps(t, setup, ops)
	}
}

// FuzzCMT drives the reference-model check from fuzz bytes: the first
// byte picks the policy and capacity, each following three bytes one step.
func FuzzCMT(f *testing.F) {
	f.Add([]byte{32, 4, 5, 2, 0, 5, 0, 4, 9, 3, 0, 4, 1})
	f.Add([]byte{1, 5, 8, 11, 4, 9, 2, 0, 10, 0, 6, 8, 7, 7, 0, 5})
	f.Add([]byte{4, 4, 0, 3, 4, 4, 3, 4, 8, 3, 4, 12, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ops := make([]cmtOp, 0, len(data)/3)
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			ops = append(ops, opFromBytes(b))
		}
		runSteps(t, data[0], ops)
	})
}

func TestEntriesOrder(t *testing.T) {
	c := New(3, testRegions)
	c.Insert(Entry{Base: 1})
	c.Insert(Entry{Base: 2})
	c.Insert(Entry{Base: 3})
	c.Lookup(1)
	es := c.Entries()
	if len(es) != 3 || es[0].Base != 1 || es[1].Base != 3 || es[2].Base != 2 {
		t.Fatalf("order: %+v", es)
	}
}

func TestAvgRegionUnits(t *testing.T) {
	c := New(4, testRegions)
	if c.AvgRegionUnits() != 0 {
		t.Fatal("empty avg")
	}
	c.Insert(Entry{Base: 0, Level: 0}) // 1 unit
	c.Insert(Entry{Base: 4, Level: 2}) // 4 units
	if got := c.AvgRegionUnits(); got != 2.5 {
		t.Fatalf("avg = %v", got)
	}
}

func TestHitRate(t *testing.T) {
	c := New(2, testRegions)
	if c.HitRate() != 1 {
		t.Fatal("fresh hit rate")
	}
	c.Insert(Entry{Base: 1})
	c.Lookup(1)
	c.Lookup(2)
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate %v", c.HitRate())
	}
}

func TestCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(0, testRegions)
}

// TestMixedLevelsSameAddress checks that cached entries stay disjoint: an
// entry overlapping a cached entry at another level is a caller bug, and
// Insert panics on it instead of caching two mappings for one address.
func TestMixedLevelsSameAddress(t *testing.T) {
	for _, e := range []Entry{
		{Base: 5, Level: 0, Prn: 2}, // inside the cached level-2 entry
		{Base: 0, Level: 3, Prn: 3}, // covering it
	} {
		c := New(4, testRegions)
		c.Insert(Entry{Base: 4, Level: 2, Prn: 1})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Insert(%+v) over a cached level-2 entry did not panic", e)
				}
			}()
			c.Insert(e)
		}()
		if err := c.checkInvariants(); err != nil {
			t.Fatalf("after the rejected insert: %v", err)
		}
		if got, ok := c.Lookup(5); !ok || got.Level != 2 {
			t.Fatalf("Lookup(5) = %+v, %v after the rejected insert", got, ok)
		}
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := New(1<<15, 1<<15)
	for i := uint64(0); i < 1<<15; i++ {
		c.Insert(Entry{Base: i})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i) & (1<<15 - 1))
	}
}

func TestFIFOPolicyDoesNotPromote(t *testing.T) {
	c := NewWithPolicy(2, testRegions, PolicyFIFO)
	c.Insert(Entry{Base: 1})
	c.Insert(Entry{Base: 2})
	c.Lookup(1)              // would promote under LRU
	c.Insert(Entry{Base: 3}) // FIFO evicts 1 (oldest insertion)
	if _, ok := c.Peek(1); ok {
		t.Fatal("FIFO promoted on hit")
	}
	if _, ok := c.Peek(2); !ok {
		t.Fatal("FIFO evicted wrong entry")
	}
}

// TestPolicyHitRate is the ablation justifying the paper's LRU stack: on a
// Zipf-skewed stream (α 1.1 over 4096 regions, seed 7) a 256-entry LRU
// cache hits 68.94 % of lookups and a FIFO one 64.12 %.
func TestPolicyHitRate(t *testing.T) {
	run := func(p Policy) float64 {
		c := NewWithPolicy(256, 4096, p)
		z := rng.NewZipf(rng.New(7), 4096, 1.1)
		for i := 0; i < 400000; i++ {
			k := z.Next()
			if _, ok := c.Lookup(k); !ok {
				c.Insert(Entry{Base: k})
			}
		}
		return c.HitRate()
	}
	lru, fifo := run(PolicyLRU), run(PolicyFIFO)
	if got := fmt.Sprintf("%.2f %.2f", 100*lru, 100*fifo); got != "68.94 64.12" {
		t.Fatalf("LRU and FIFO hit rates %s %%, want 68.94 64.12", got)
	}
}
