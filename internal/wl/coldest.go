package wl

// Coldest indexes n wear counters that only grow, for the schemes that
// swap with their least-worn unit: the least-worn index, or the least-worn
// one other than x, with ties going to the lowest index, as a linear scan
// with a strict comparison finds it. It is a tournament tree: node k holds
// the winning leaf of its subtree, so Min is one load and MinExcluding
// plays x's siblings up the path, O(log n). An Add replays the grown
// leaf's path only while that leaf was winning, since a counter that grows
// cannot win anywhere new; an Add that wraps the counter replays the whole
// path, so the answer stays exact at any counter width. The tree is
// simulator state, not modelled hardware.
type Coldest[C uint32 | uint64] struct {
	val  []C
	win  []int32 // win[k]: winning leaf of node k; leaf i is node size+i, -1 is padding
	size int     // leaves in the tree, a power of two >= len(val)
}

// NewColdest returns an index over n counters, all zero.
func NewColdest[C uint32 | uint64](n int) *Coldest[C] {
	size := 1
	for size < n {
		size *= 2
	}
	c := &Coldest[C]{val: make([]C, n), win: make([]int32, 2*size), size: size}
	for i := range size {
		c.win[size+i] = -1
		if i < n {
			c.win[size+i] = int32(i)
		}
	}
	for k := size - 1; k >= 1; k-- {
		c.win[k] = c.colder(c.win[2*k], c.win[2*k+1])
	}
	return c
}

// colder returns the colder of leaves a and b: the smaller counter, the
// lower index on a tie, and any leaf over padding.
func (c *Coldest[C]) colder(a, b int32) int32 {
	switch {
	case b < 0:
		return a
	case a < 0:
		return b
	case c.val[b] < c.val[a] || c.val[b] == c.val[a] && b < a:
		return b
	}
	return a
}

// Add adds d to counter i.
func (c *Coldest[C]) Add(i int, d C) {
	v := c.val[i] + d
	wrapped := v < c.val[i]
	c.val[i] = v
	for k := (c.size + i) / 2; k >= 1; k /= 2 {
		if !wrapped && c.win[k] != int32(i) {
			return
		}
		c.win[k] = c.colder(c.win[2*k], c.win[2*k+1])
	}
}

// Min returns the least-worn index (-1 when there are no counters).
func (c *Coldest[C]) Min() int { return int(c.win[1]) }

// MinExcluding returns the least-worn index other than x (-1 when x is
// the only counter).
func (c *Coldest[C]) MinExcluding(x int) int {
	best := int32(-1)
	for k := c.size + x; k > 1; k /= 2 {
		best = c.colder(best, c.win[k^1])
	}
	return int(best)
}
