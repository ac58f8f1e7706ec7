package rng

import (
	"math"
	"testing"
)

// zipfAlphas holds every SPEC profile's ZipfAlpha (internal/workload), the
// hot-set exponent 1.1, and 0.5 and 2.5 on either side of them.
var zipfAlphas = []float64{0.7, 0.75, 0.8, 0.85, 0.9, 1.0, 1.05, 1.1, 1.15, 1.25, 1.3, 0.5, 2.5}

// closedFormNext is Next without the table: the reference sampler.
func closedFormNext(z *Zipf) uint64 {
	for {
		if k, ok := z.closedForm(z.u(z.src.Float64())); ok {
			return k
		}
	}
}

// tableVerdict is what one pass of Next's loop settles for the draw f
// without the closed form: accept with a rank index, reject, or undecided.
func tableVerdict(z *Zipf, f float64) (uint64, int) {
	g := z.guide[int(f*z.guideScale)]
	switch {
	case g < guideReject:
		return uint64(g), accept
	case g == guideReject:
		return 0, reject
	}
	i, v := z.decide(z.u(f), g&^guideMixed)
	return uint64(i), v
}

// agrees reports whether the table's verdict v, with rank index i, for u
// matches the closed form's. An undecided table agrees with anything.
func agrees(z *Zipf, u float64, i uint64, v int) bool {
	if v == undecided {
		return true
	}
	k, ok := z.closedForm(u)
	return ok == (v == accept) && (!ok || k == i)
}

func TestZipfMatchesClosedForm(t *testing.T) {
	for _, alpha := range zipfAlphas {
		for _, n := range []uint64{1, 16, 1024, 1 << 17} {
			a := NewZipf(New(uint64(n)^0x5eed), n, alpha)
			b := NewZipf(New(uint64(n)^0x5eed), n, alpha)
			for i := 0; i < 1<<18; i++ {
				if x, y := a.Next(), closedFormNext(b); x != y {
					t.Fatalf("alpha=%v n=%d: draw %d is %d, closed form %d", alpha, n, i, x, y)
				}
			}
		}
	}
}

// TestZipfTableEdges checks the table against the closed form where a
// rounding could flip it: ulp steps around every tabulated rank's edges and
// their guard edges, and the ends and interior of every pure guide bucket.
func TestZipfTableEdges(t *testing.T) {
	for _, alpha := range zipfAlphas {
		for _, n := range []uint64{2, 16, 1024, 1 << 17} {
			z := NewZipf(New(1), n, alpha)
			for i, r := range z.head {
				// The cell search may start two ranks down: u lies in rank
				// i's cell, the one above, or (an early edge) the one below.
				hint := uint16(max(i, 2) - 2)
				for _, e := range []float64{r.edge, r.early, r.squeeze} {
					for _, base := range []float64{e - z.guard, e, e + z.guard} {
						u := stepUlps(base, -16)
						for s := -16; s <= 16; s++ {
							if k, v := z.decide(u, hint); !agrees(z, u, uint64(k), v) {
								t.Fatalf("alpha=%v n=%d rank %d: table (%d, verdict %d) disagrees at u=%v", alpha, n, i, k, v, u)
							}
							u = math.Nextafter(u, math.Inf(1))
						}
					}
				}
			}
			for j, g := range z.guide {
				if g >= guideMixed {
					continue
				}
				v, k := accept, uint64(g)
				if g == guideReject {
					v, k = reject, 0
				}
				lo := float64(j) / z.guideScale
				hi := float64(j+1)/z.guideScale - 1.0/(1<<53)
				for p := 0; p <= 8; p++ {
					if u := z.u(lo + (hi-lo)*float64(p)/8); !agrees(z, u, k, v) {
						t.Fatalf("alpha=%v n=%d bucket %d: verdict %d disagrees at u=%v", alpha, n, j, v, u)
					}
				}
			}
		}
	}
}

// stepUlps moves u by steps ulps, down for negative steps.
func stepUlps(u float64, steps int) float64 {
	dir := math.Inf(1)
	if steps < 0 {
		dir, steps = math.Inf(-1), -steps
	}
	for ; steps > 0; steps-- {
		u = math.Nextafter(u, dir)
	}
	return u
}

// TestZipfPMF pins the sampler to the Zipf pmf p(k) ∝ k^-alpha by a
// chi-squared goodness-of-fit test with fixed seeds.
func TestZipfPMF(t *testing.T) {
	const draws = 2_000_000
	for _, n := range []uint64{2, 16, 64, 1000} {
		for _, alpha := range []float64{0.7, 1.0, 1.3} {
			z := NewZipf(New(n*7919+uint64(alpha*100)), n, alpha)
			counts := make([]float64, n)
			for i := 0; i < draws; i++ {
				counts[z.Next()]++
			}
			norm := 0.0
			for k := range counts {
				norm += math.Pow(float64(k+1), -alpha)
			}
			chi2 := 0.0
			for k, c := range counts {
				want := draws * math.Pow(float64(k+1), -alpha) / norm
				chi2 += (c - want) * (c - want) / want
			}
			df := float64(n - 1)
			if bound := df + 4*math.Sqrt(2*df); chi2 >= bound {
				t.Errorf("n=%d alpha=%v: chi2 %.1f over %v df, bound %.1f", n, alpha, chi2, df, bound)
			}
		}
	}
}

// Which u FuzzZipfDecision builds: from a draw, or near one of a rank's
// three edges, shifted by -guard, 0 or +guard.
const (
	fuzzDraw = iota
	fuzzEdges
)

// FuzzZipfDecision checks that whenever the table settles a u, the closed
// form settles it the same way. u comes either from the draw expression on
// bits, or from stepping one of a tabulated rank's edges by up to 1024 ulps.
func FuzzZipfDecision(f *testing.F) {
	for ai := range zipfAlphas {
		for _, n := range []uint32{1, 16, 1024, 1 << 17} {
			f.Add(uint64(0), n, uint8(ai), uint8(fuzzDraw), int16(0))
			for sel := 0; sel < 9; sel++ {
				for _, rank := range []uint64{0, 1, 15, 1023} {
					for _, off := range []int16{-1, 0, 1} {
						f.Add(rank, n, uint8(ai), uint8(fuzzEdges+sel), off)
					}
				}
			}
		}
	}
	samplers := map[[2]uint64]*Zipf{}
	f.Fuzz(func(t *testing.T, bits uint64, n uint32, ai uint8, mode uint8, offset int16) {
		key := [2]uint64{uint64(n)%(1<<20) + 1, uint64(ai) % uint64(len(zipfAlphas))}
		z := samplers[key]
		if z == nil {
			z = NewZipf(New(1), key[0], zipfAlphas[key[1]])
			samplers[key] = z
		}
		if mode%(fuzzEdges+9) == fuzzDraw {
			draw := float64(bits>>11) / (1 << 53)
			if k, v := tableVerdict(z, draw); !agrees(z, z.u(draw), k, v) {
				t.Fatalf("draw %v: table (%d, verdict %d) disagrees", draw, k, v)
			}
			return
		}
		sel := int(mode%(fuzzEdges+9)) - fuzzEdges
		r := z.head[bits%uint64(len(z.head))]
		u := []float64{r.edge, r.early, r.squeeze}[sel/3] + float64(sel%3-1)*z.guard
		u = stepUlps(u, int(offset)%1025)
		if k, v := z.decide(u, 0); !agrees(z, u, uint64(k), v) {
			t.Fatalf("u=%v: table (%d, verdict %d) disagrees", u, k, v)
		}
	})
}
