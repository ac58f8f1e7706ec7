// Package workload generates the memory-request streams used by the paper's
// evaluation: the two attack programs (RAA and BPA, Sec 2.2) and synthetic
// stand-ins for the 14 SPEC CPU2006 applications (Sec 4.1).
//
// The SPEC substitution: the original evaluation replays gem5 traces of the
// benchmark binaries. Those traces are not redistributable, and the results
// only depend on each application's memory-locality class — footprint, hot
// set, skew, streaming behaviour, write ratio and phase changes — so each
// benchmark is modeled as a parameterized generator (Profile) calibrated to
// reproduce the paper's reported CMT hit rates and lifetime ordering. All
// generators are deterministic given a seed.
package workload

import (
	"nvmwear/internal/rng"
	"nvmwear/internal/trace"
)

// RAA is the Repeated Address Attack: it writes the same logical address
// forever (Sec 2.2). Any scheme that cannot migrate the attacked line
// across the whole device fails in hours.
type RAA struct {
	Target uint64
}

// NewRAA returns an RAA stream against the given logical line.
func NewRAA(target uint64) *RAA { return &RAA{Target: target} }

// NextBatch implements trace.Stream.
func (a *RAA) NextBatch(ops []trace.Op, addrs []uint64) int {
	fill(ops, trace.Write)
	fill(addrs, a.Target)
	return len(ops)
}

// BPA is the Birthday Paradox Attack (Seznec): it randomly selects logical
// addresses and writes each one repeatedly and precisely, defeating schemes
// whose remapping is too slow to disperse the repeated writes.
type BPA struct {
	src     *rng.Source
	lines   uint64
	repeats uint64
	cur     uint64
	left    uint64
}

// NewBPA creates a BPA stream over a logical space of `lines` lines,
// writing each randomly chosen address `repeats` times before moving on.
func NewBPA(seed, lines, repeats uint64) *BPA {
	if lines == 0 {
		panic("workload: BPA over zero lines")
	}
	if repeats == 0 {
		repeats = 1
	}
	return &BPA{src: rng.New(seed), lines: lines, repeats: repeats}
}

// NextBatch implements trace.Stream: each repeat run costs one RNG draw,
// and a run cut by the batch end goes on in the next batch.
func (a *BPA) NextBatch(ops []trace.Op, addrs []uint64) int {
	fill(ops, trace.Write)
	for i := 0; i < len(addrs); {
		if a.left == 0 {
			a.cur = a.src.Uint64n(a.lines)
			a.left = a.repeats
		}
		run := min(a.left, uint64(len(addrs)-i))
		fill(addrs[i:i+int(run)], a.cur)
		a.left -= run
		i += int(run)
	}
	return len(ops)
}

// fillStores is how many leading elements fill sets one by one: below it a
// copy costs more than the stores it saves.
const fillStores = 32

// fill sets every element of s to v: up to fillStores elements by stores,
// the rest by copy-doubling (copy(s[k:], s[:k]) with k doubling), so a long
// repeat run costs a few copies rather than a store per element.
func fill[T any](s []T, v T) {
	k := min(len(s), fillStores)
	for i := range k {
		s[i] = v
	}
	for ; k < len(s); k *= 2 {
		copy(s[k:], s[:k])
	}
}

// Uniform writes/reads uniformly random addresses; the best case for wear
// and the worst case for locality.
type Uniform struct {
	src        *rng.Source
	lines      uint64
	writeRatio float64
}

// NewUniform creates a uniform stream over `lines` addresses.
func NewUniform(seed, lines uint64, writeRatio float64) *Uniform {
	if lines == 0 {
		panic("workload: Uniform over zero lines")
	}
	return &Uniform{src: rng.New(seed), lines: lines, writeRatio: writeRatio}
}

// NextBatch implements trace.Stream.
func (u *Uniform) NextBatch(ops []trace.Op, addrs []uint64) int {
	for i := range ops {
		op := trace.Read
		if u.src.Bool(u.writeRatio) {
			op = trace.Write
		}
		ops[i] = op
		addrs[i] = u.src.Uint64n(u.lines)
	}
	return len(ops)
}

// Sequential streams through the address space in order, wrapping at the
// footprint boundary — the pattern of streaming kernels.
type Sequential struct {
	lines      uint64
	next       uint64
	writeRatio float64
	src        *rng.Source
}

// NewSequential creates a sequential stream over `lines` addresses.
func NewSequential(seed, lines uint64, writeRatio float64) *Sequential {
	if lines == 0 {
		panic("workload: Sequential over zero lines")
	}
	return &Sequential{lines: lines, writeRatio: writeRatio, src: rng.New(seed)}
}

// NextBatch implements trace.Stream.
func (s *Sequential) NextBatch(ops []trace.Op, addrs []uint64) int {
	for i := range ops {
		op := trace.Read
		if s.src.Bool(s.writeRatio) {
			op = trace.Write
		}
		ops[i] = op
		addrs[i] = s.next
		s.next++
		if s.next == s.lines {
			s.next = 0
		}
	}
	return len(ops)
}
