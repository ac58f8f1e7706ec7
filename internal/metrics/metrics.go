// Package metrics provides the statistics used throughout the evaluation:
// the wear-distribution Gini coefficient, harmonic means for
// cross-benchmark aggregation (the paper reports Hmean in Fig 16 and 17),
// quantiles and the population statistics of fleet sweeps, and the sliding
// windows that SAWL uses to observe the runtime cache hit rate (Sec 4.2).
package metrics

import (
	"math"
	"sort"
)

// Quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics, without mutating xs — used for
// the per-job wall-time p50/p99 the CLI reports per sweep. An empty sample
// yields 0.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// HarmonicMean returns the harmonic mean of xs, the aggregation the paper
// uses for per-benchmark lifetimes. Zero or negative entries would make the
// harmonic mean undefined; they are treated as the smallest positive value
// present (or 0 if all entries are nonpositive, yielding 0).
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	minPos := math.MaxFloat64
	for _, x := range xs {
		if x > 0 && x < minPos {
			minPos = x
		}
	}
	if minPos == math.MaxFloat64 {
		return 0
	}
	var inv float64
	for _, x := range xs {
		if x <= 0 {
			x = minPos
		}
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}

// CycleCost builds a longest-job-first cost hint (internal/exec.Pool.Cost)
// from per-item weights, for job lists laid out in item-major cycles: job i
// is assumed to target item i%len(weights). The SPEC sweeps use it with the
// benchmarks' canonical footprints, the dominant driver of per-job wall
// time. An empty weight list yields nil (no cost ordering).
func CycleCost(weights []float64) func(i int) float64 {
	if len(weights) == 0 {
		return nil
	}
	return func(i int) float64 { return weights[i%len(weights)] }
}

// GiniUint32 computes the Gini coefficient of a non-negative integer sample
// (per-line write counts). 0 means perfectly uniform wear; values near 1
// mean writes concentrated on few lines. Returns 0 for empty or all-zero
// samples. The input is not modified: GiniUint32 sorts a copy, since its
// callers pass a device's live wear counters.
//
// This runs on every lifetime result over the device's full wear array, so
// it is a sweep hot path: sorting uses a byte-wise LSD radix sort instead
// of a comparison sort (no per-comparison closure calls, O(n) passes), and
// skips passes whose key byte is constant across the sample.
func GiniUint32(xs []uint32) float64 {
	sorted := make([]uint32, len(xs))
	copy(sorted, xs)
	SortUint32(sorted)
	return GiniSorted(sorted)
}

// GiniSorted is GiniUint32 of a sample already sorted ascending, for a
// caller that owns its sample and sorts it in place with SortUint32.
func GiniSorted(sorted []uint32) float64 {
	if len(sorted) == 0 {
		return 0
	}
	var cum, total float64
	n := float64(len(sorted))
	for i, x := range sorted {
		total += float64(x)
		cum += float64(x) * (n - float64(i))
	}
	if total == 0 {
		return 0
	}
	return (n + 1 - 2*cum/total) / n
}

// SortUint32 sorts a in place, ascending. Small slices fall back to
// insertion sort; larger ones use a 4-pass byte-wise LSD radix sort with
// constant-byte pass skipping (wear counts rarely exceed 24 bits, so the
// high passes are usually free). Shared by every wear-distribution
// computation (Gini here, order statistics in internal/analysis).
func SortUint32(a []uint32) {
	if len(a) < 64 {
		for i := 1; i < len(a); i++ {
			x := a[i]
			j := i - 1
			for j >= 0 && a[j] > x {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = x
		}
		return
	}
	buf := make([]uint32, len(a))
	src, dst := a, buf
	for shift := uint(0); shift < 32; shift += 8 {
		var count [256]int
		for _, x := range src {
			count[(x>>shift)&0xff]++
		}
		if count[src[0]>>shift&0xff] == len(src) {
			continue // all keys share this byte: pass is a no-op
		}
		pos := 0
		for b := range count {
			c := count[b]
			count[b] = pos
			pos += c
		}
		for _, x := range src {
			b := (x >> shift) & 0xff
			dst[count[b]] = x
			count[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}
