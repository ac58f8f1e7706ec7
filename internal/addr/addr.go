// Package addr centralizes the address arithmetic shared by every
// wear-leveling scheme in this repository.
//
// The memory is modeled at line granularity: a line is the atomic access
// unit whose size equals a last-level cache line (64 B in the paper's
// Table 1). A logical memory address (lma) names a line in the application's
// address space; a physical memory address (pma) names a line on the NVM
// device. Wear leveling is the time-varying bijection lma -> pma.
//
// Hybrid schemes (PCM-S, MWSR, NWL, SAWL) split an address into a region
// number and an intra-region offset:
//
//	lma = lrn*Q + lao        pma = prn*Q + pao        pao = lao XOR key
//
// where Q is the wear-leveling granularity (lines per region, a power of
// two) and key is the per-region offset parameter. The paper's Integrated
// Mapping Table packs (prn, key) into a single value D = prn*Q + key
// (Sec 3.3 step 5: prn = D/Q, key = D%Q); Pack and Unpack implement exactly
// that encoding. Every Q is a power of two, so both take log2(Q) and shift
// and mask instead of dividing.
package addr

import "math/bits"

// Line is a line address, logical or physical depending on context.
type Line = uint64

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v uint64) bool {
	return v != 0 && v&(v-1) == 0
}

// Log2 returns floor(log2(v)). It panics if v == 0.
func Log2(v uint64) uint {
	if v == 0 {
		panic("addr: Log2 of zero")
	}
	return uint(63 - bits.LeadingZeros64(v))
}

// Pack encodes a (prn, key) pair into the single table value D used by IMT
// entries: D = prn*Q + key, for Q = 1<<qShift. key must be < Q.
func Pack(prn, key uint64, qShift uint) uint64 {
	return prn<<qShift | key
}

// Unpack decodes D into (prn, key) for Q = 1<<qShift.
func Unpack(d uint64, qShift uint) (prn, key uint64) {
	return d >> qShift, d & (1<<qShift - 1)
}

// Translate performs the full hybrid-scheme translation of a logical line
// address given the region's packed address info d and granularity
// Q = 1<<qShift: steps 5-7 of the paper's Fig 11 workflow.
func Translate(lma Line, d uint64, qShift uint) Line {
	prn, key := Unpack(d, qShift)
	return Pack(prn, lma&(1<<qShift-1)^key, qShift)
}
