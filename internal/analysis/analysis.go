// Package analysis turns raw simulation measurements into the derived
// quantities the paper reasons with: wall-clock lifetime projections
// ("the ideal lifetime of this NVM system can be derived to be 2.5 months
// and 25 months respectively with 1 GBps write traffic", Sec 2.2), wear
// distribution reports, and attack-resistance summaries.
package analysis

import (
	"fmt"
	"math"
	"time"

	"nvmwear/internal/metrics"
)

// Projection converts a normalized lifetime into wall-clock time for a
// full-size device under a given write bandwidth.
type Projection struct {
	CapacityBytes  uint64
	LineBytes      uint64
	Endurance      uint64
	WriteBandwidth float64 // bytes per second
	Normalized     float64 // measured fraction of ideal
}

// IdealWrites returns the total line writes a perfectly-leveled device
// absorbs.
func (p Projection) IdealWrites() float64 {
	lines := float64(p.CapacityBytes) / float64(p.LineBytes)
	return lines * float64(p.Endurance)
}

// Ideal returns the wall-clock lifetime of the perfectly-leveled device.
func (p Projection) Ideal() time.Duration {
	writesPerSec := p.WriteBandwidth / float64(p.LineBytes)
	if writesPerSec <= 0 {
		return 0
	}
	seconds := p.IdealWrites() / writesPerSec
	return time.Duration(seconds * float64(time.Second))
}

// Projected returns the wall-clock lifetime at the measured normalized
// fraction.
func (p Projection) Projected() time.Duration {
	return time.Duration(float64(p.Ideal()) * p.Normalized)
}

// Months renders a duration in months (30-day months, as the paper's
// "2.5 months" arithmetic implies).
func Months(d time.Duration) float64 {
	return d.Hours() / (24 * 30)
}

// String implements fmt.Stringer.
func (p Projection) String() string {
	return fmt.Sprintf("ideal %.1f months, projected %.1f months (%.1f%% of ideal)",
		Months(p.Ideal()), Months(p.Projected()), 100*p.Normalized)
}

// WearReport summarizes a device's per-line wear distribution.
type WearReport struct {
	Lines    int
	Max      uint32
	Mean     float64
	Median   uint32
	P99      uint32
	Gini     float64
	CoV      float64
	ZeroFrac float64 // fraction of lines never written
}

// Wear computes a WearReport from per-line write counts.
func Wear(counts []uint32) WearReport {
	r := WearReport{Lines: len(counts)}
	if len(counts) == 0 {
		return r
	}
	sorted := make([]uint32, len(counts))
	copy(sorted, counts)
	metrics.SortUint32(sorted)

	var sum, sumSq float64
	zero := 0
	n := float64(len(sorted))
	for _, c := range sorted {
		f := float64(c)
		sum += f
		sumSq += f * f
		if c == 0 {
			zero++
		}
	}
	r.Max = sorted[len(sorted)-1]
	r.Mean = sum / n
	r.Median = sorted[len(sorted)/2]
	r.P99 = sorted[int(0.99*n)]
	r.ZeroFrac = float64(zero) / n
	r.Gini = metrics.GiniSorted(sorted)
	if r.Mean > 0 {
		variance := sumSq/n - r.Mean*r.Mean
		if variance > 0 {
			r.CoV = math.Sqrt(variance) / r.Mean
		}
	}
	return r
}

// String implements fmt.Stringer.
func (r WearReport) String() string {
	return fmt.Sprintf("wear{max=%d mean=%.1f median=%d p99=%d gini=%.3f cov=%.3f zero=%.1f%%}",
		r.Max, r.Mean, r.Median, r.P99, r.Gini, r.CoV, 100*r.ZeroFrac)
}

// AttackScore grades a scheme's attack resistance from its normalized
// lifetimes under RAA and BPA, mirroring the paper's Sec 2.2 taxonomy:
// a scheme is only considered robust when it survives both.
type AttackScore struct {
	RAANormalized float64
	BPANormalized float64
}

// Verdict classifies the score.
func (a AttackScore) Verdict() string {
	worst := a.RAANormalized
	if a.BPANormalized < worst {
		worst = a.BPANormalized
	}
	switch {
	case worst >= 0.40:
		return "robust"
	case worst >= 0.10:
		return "degraded"
	default:
		return "vulnerable"
	}
}

// String implements fmt.Stringer.
func (a AttackScore) String() string {
	return fmt.Sprintf("RAA %.1f%% / BPA %.1f%% -> %s",
		100*a.RAANormalized, 100*a.BPANormalized, a.Verdict())
}
