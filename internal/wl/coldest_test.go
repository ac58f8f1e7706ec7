package wl

import (
	"math"
	"math/rand"
	"testing"
)

// scanColdest is the linear scan the index replaces: the least counter
// other than skip, lowest index on ties (strict comparison), or -1.
func scanColdest[C uint32 | uint64](val []C, skip int) int {
	best := -1
	for i, v := range val {
		if i != skip && (best < 0 || v < val[best]) {
			best = i
		}
	}
	return best
}

// checkColdest compares Min and MinExcluding at every x with the scan.
func checkColdest[C uint32 | uint64](t *testing.T, c *Coldest[C], step int) {
	t.Helper()
	if got, want := c.Min(), scanColdest(c.val, -1); got != want {
		t.Fatalf("step %d: Min = %d, scan %d (values %v)", step, got, want, c.val)
	}
	for x := range c.val {
		if got, want := c.MinExcluding(x), scanColdest(c.val, x); got != want {
			t.Fatalf("step %d: MinExcluding(%d) = %d, scan %d (values %v)", step, x, got, want, c.val)
		}
	}
}

// TestColdestMatchesScan drives the index with random, tie-heavy adds
// (most add 0 or 1, so many counters share the minimum) and checks every
// answer against the scan after each add.
func TestColdestMatchesScan(t *testing.T) {
	for _, n := range []int{1, 2, 3, 256, 257} {
		r := rand.New(rand.NewSource(int64(n)))
		c := NewColdest[uint64](n)
		checkColdest(t, c, 0)
		steps := 3000
		if n > 64 {
			steps = 400
		}
		for step := 1; step <= steps; step++ {
			d := uint64(r.Intn(3))
			if r.Intn(8) == 0 {
				d = uint64(r.Intn(40))
			}
			c.Add(r.Intn(n), d)
			checkColdest(t, c, step)
		}
	}
}

// TestColdestWraps checks that a counter wrapping at its width is
// ranked as the scan ranks it, at the narrow width softwear uses.
func TestColdestWraps(t *testing.T) {
	c := NewColdest[uint32](5)
	for i := range 5 {
		c.Add(i, math.MaxUint32-3+uint32(i))
	}
	checkColdest(t, c, 0)
	c.Add(4, 10) // wraps to 5: now the coldest
	checkColdest(t, c, 1)
	c.Add(0, 7) // wraps to 3
	checkColdest(t, c, 2)
}
