package rng

import "math"

// zipfHead is the number of head ranks a Zipf sampler tabulates. It covers
// the page footprints of the SPEC lifetime and IPC benchmark workloads (at
// most 1024 pages); draws past it take the closed form. The cap bounds a
// sampler's tables at about 56 KB, so they stay in cache next to the
// generator's other state, and its build at under a millisecond.
const zipfHead = 1024

// zipfGuidePerRank is the number of guide buckets per tabulated rank. It
// keeps most buckets clear of every rank's edges, so most draws need one
// load, while the guide (2 bytes a bucket) stays within 32 KB.
const zipfGuidePerRank = 16

// A guide entry below guideReject accepts that rank index outright,
// guideReject redraws, and guideMixed|i leaves u to decide, starting the
// cell search at rank index i.
const (
	guideReject = 1<<15 - 1
	guideMixed  = 1 << 15
)

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^alpha. It uses the rejection-inversion method of Hörmann and
// Derflinger, which needs O(1) time per sample. Most draws are settled by a
// table over the first zipfHead ranks; the closed form decides the rest, so
// memory stays bounded by zipfHead whatever n is, and a workload generator
// can model multi-gigabyte footprints without allocating memory
// proportional to the footprint.
//
// The table gives exactly the closed form's answer, draw for draw. For rank
// k it stores three u-space edges, each computed by the methods the closed
// form calls: the cell edge hIntegral(k+0.5), where floor(x+0.5) steps to
// k+1; the early-accept edge hIntegral(k-s), where k-x <= s starts to
// hold; and the squeeze threshold hIntegral(k+0.5)-h(k), the very float64
// the closed form compares u against. The table answers only for a u at
// least guard away from its cell's edges and, below the squeeze threshold,
// from the early-accept edge; the closed form decides every other u, and
// every u past the last tabulated cell edge.
//
// The closed form's x = hIntegralInverse(u) is exp of a log(x) good to a
// few ulps, so x carries a relative error of a few ulps times log(x), at
// most 7 at a tabulated rank (x <= zipfHead+0.5). Mapped back through
// du = h(x)dx, that is a u-space error under a few ulps times 7 times twice
// the u range hIntegralNum-hIntegralX1. guard is 1e-9 of that range, more
// than 10^5 times wider than any rounding that could flip floor(x+0.5) or
// k-x <= s at a tabulated rank.
type Zipf struct {
	src           *Source
	n             float64
	alpha         float64
	oneMinusAlpha float64
	hIntegralX1   float64
	hIntegralNum  float64
	s             float64

	head  []zipfRank
	guard float64
	// guide splits the Float64 draw range [0, 1) into len(guide) equal
	// buckets, a power of two so that the bucket index is exact; since u
	// falls as the draw rises, each bucket is an interval of u.
	guide      []uint16
	guideScale float64
	// Every bucket below headF lies past the head, so Next sends those
	// draws to the closed form without loading the guide.
	headF float64
}

// zipfRank holds one tabulated rank's u-space edges.
type zipfRank struct {
	edge, early, squeeze float64
}

// NewZipf returns a Zipf sampler over [0, n) with exponent alpha > 0,
// alpha != 1 handled exactly and alpha == 1 handled via a small epsilon
// offset. It panics if n == 0 or alpha <= 0.
func NewZipf(src *Source, n uint64, alpha float64) *Zipf {
	if n == 0 {
		panic("rng: NewZipf with n == 0")
	}
	if alpha <= 0 {
		panic("rng: NewZipf with alpha <= 0")
	}
	if alpha == 1 {
		// The rejection-inversion transform divides by (1 - alpha).
		alpha = 1 + 1e-9
	}
	z := &Zipf{
		src:           src,
		n:             float64(n),
		alpha:         alpha,
		oneMinusAlpha: 1 - alpha,
	}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralNum = z.hIntegral(z.n + 0.5)
	z.s = 2 - z.hIntegralInverse(z.hIntegral(2.5)-z.h(2))
	z.buildTable(min(n, zipfHead))
	return z
}

// buildTable tabulates ranks 1..m and classifies each guide bucket by
// deciding the ends of its u interval, widened by guard on both sides:
// decide's verdict for one rank index holds on an interval of u, so equal
// verdicts at both ends hold for every u in the bucket.
func (z *Zipf) buildTable(m uint64) {
	z.head = make([]zipfRank, m)
	for i := range z.head {
		k := float64(i + 1)
		// squeeze is written as closedForm writes it, so that both sites
		// compile to the same float operations.
		z.head[i] = zipfRank{
			edge:    z.hIntegral(k + 0.5),
			early:   z.hIntegral(k - z.s),
			squeeze: z.hIntegral(k+0.5) - z.h(k),
		}
	}
	z.guard = 1e-9 * (z.hIntegralNum - z.hIntegralX1)
	buckets := uint64(1)
	for buckets < zipfGuidePerRank*m {
		buckets <<= 1
	}
	z.guide = make([]uint16, buckets)
	z.guideScale = float64(buckets)
	// Walk the buckets in rising u, so the cell search only moves forward.
	var hint uint16
	for j := int(buckets) - 1; j >= 0; j-- {
		lo := z.u(float64(j+1)/z.guideScale-1.0/(1<<53)) - z.guard
		hi := z.u(float64(j)/z.guideScale) + z.guard
		if lo >= z.head[m-1].edge && z.headF == 0 {
			z.headF = float64(j+1) / z.guideScale
		}
		for int(hint) < len(z.head)-1 && lo >= z.head[hint].edge {
			hint++
		}
		iLo, vLo := z.decide(lo, hint)
		iHi, vHi := z.decide(hi, hint)
		switch {
		case vLo == accept && vHi == accept && iLo == iHi:
			z.guide[j] = iLo
		case vLo == reject && vHi == reject && iLo == iHi:
			z.guide[j] = guideReject
		default:
			z.guide[j] = guideMixed | hint
		}
	}
}

// The verdicts of decide.
const (
	undecided = iota
	accept
	reject
)

// decide settles u from the table, searching for its cell from rank index
// i, which must not lie above u's cell. It returns accept with u's rank
// index, reject, or undecided when u is within guard of a cell or
// early-accept edge or lies past the last tabulated cell.
func (z *Zipf) decide(u float64, i uint16) (uint16, int) {
	t := z.head
	for int(i) < len(t)-1 && u >= t[i].edge {
		i++
	}
	r := t[i]
	if r.edge-u < z.guard || (i > 0 && u-t[i-1].edge < z.guard) {
		return i, undecided
	}
	if u >= r.squeeze || u-r.early >= z.guard {
		return i, accept
	}
	if r.early-u >= z.guard {
		return i, reject
	}
	return i, undecided
}

// h is the (unnormalized) density x^-alpha.
func (z *Zipf) h(x float64) float64 {
	return math.Exp(-z.alpha * math.Log(x))
}

// hIntegral is the antiderivative of h.
func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2(z.oneMinusAlpha*logX) * logX
}

// hIntegralInverse inverts hIntegral.
func (z *Zipf) hIntegralInverse(x float64) float64 {
	t := x * z.oneMinusAlpha
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log1p(x)/x with a stable expansion near zero.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3.0-0.25*x))
}

// helper2 computes expm1(x)/x with a stable expansion near zero.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1.0/3.0)*(1+0.25*x))
}

// Next returns the next Zipf-distributed rank in [0, n). Rank 0 is the most
// popular.
func (z *Zipf) Next() uint64 {
	for {
		f := z.src.Float64()
		if f >= z.headF {
			g := z.guide[int(f*z.guideScale)]
			if g < guideReject {
				return uint64(g)
			}
			if g == guideReject {
				continue
			}
			i, v := z.decide(z.u(f), g&^guideMixed)
			if v == accept {
				return uint64(i)
			}
			if v == reject {
				continue
			}
		}
		if k, ok := z.closedForm(z.u(f)); ok {
			return k
		}
	}
}

// u maps a Float64 draw f to u-space; u falls as f rises.
func (z *Zipf) u(f float64) float64 {
	return z.hIntegralNum + f*(z.hIntegralX1-z.hIntegralNum)
}

// closedForm is the rejection-inversion step for u: the rank index and
// whether it is accepted. It is the reference the table must match.
func (z *Zipf) closedForm(u float64) (uint64, bool) {
	x := z.hIntegralInverse(u)
	k := math.Floor(x + 0.5)
	if k < 1 {
		k = 1
	} else if k > z.n {
		k = z.n
	}
	return uint64(k) - 1, k-x <= z.s || u >= z.hIntegral(k+0.5)-z.h(k)
}
