package workload

import (
	"nvmwear/internal/trace"
)

// RateMode models the paper's evaluation methodology (Sec 4.1): "we perform
// evaluations by executing the benchmark in rate mode, where all the eight
// cores execute the same benchmark". Each core runs an independent copy of
// the profile in its own slice of the logical address space; requests
// round-robin across the cores, as an 8-core memory controller would see
// them.
type RateMode struct {
	gens []*Gen
	next int
	base []uint64
	// ops and addrs hold one copy's share of a fill.
	ops   []trace.Op
	addrs []uint64
}

// NewRateMode instantiates `copies` independent instances of the profile
// over equal partitions of a `lines`-line space. copies must divide the
// space into partitions of at least one page.
func NewRateMode(p Profile, seed, lines uint64, copies int) *RateMode {
	if copies <= 0 {
		panic("workload: RateMode needs at least one copy")
	}
	part := lines / uint64(copies)
	if part < PageLines {
		panic("workload: RateMode partitions smaller than one page")
	}
	r := &RateMode{
		gens: make([]*Gen, copies),
		base: make([]uint64, copies),
	}
	for i := 0; i < copies; i++ {
		// Distinct seed per core: rate mode runs the same program, but the
		// copies are not in lockstep.
		r.gens[i] = p.New(seed+uint64(i)*0x9e3779b97f4a7c15, part)
		r.base[i] = uint64(i) * part
	}
	return r
}

// NextBatch implements trace.Stream. Request i of the fill is the next
// request of copy (next+i) mod copies, so each copy's share of the fill is
// one NextBatch of that copy, spread over every copies-th slot.
func (r *RateMode) NextBatch(ops []trace.Op, addrs []uint64) int {
	c := len(r.gens)
	if share := (len(ops) + c - 1) / c; cap(r.ops) < share {
		r.ops, r.addrs = make([]trace.Op, share), make([]uint64, share)
	}
	for d := 0; d < min(c, len(ops)); d++ {
		q := (r.next + d) % c
		k := (len(ops) - d + c - 1) / c
		r.gens[q].NextBatch(r.ops[:k], r.addrs[:k])
		for j := range k {
			ops[d+j*c], addrs[d+j*c] = r.ops[j], r.addrs[j]+r.base[q]
		}
	}
	r.next = (r.next + len(ops)) % c
	return len(ops)
}
