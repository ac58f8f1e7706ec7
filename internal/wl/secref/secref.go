// Package secref implements Security Refresh [Seong+ ISCA'10], the paper's
// representative algebraic wear-leveling (AWL) scheme, in its single-level
// and two-level (TLSR) forms (Sec 2.1, Fig 1c).
//
// A Security Refresh instance gradually re-randomizes the mapping of a
// power-of-two space using two XOR keys: k0 from the previous round and k1
// from the current round. A refresh pointer rp sweeps the space; addresses
// the sweep has passed map through k1, the rest still map through k0:
//
//	refreshed(m) = m < rp || m^k0^k1 < rp
//	pa(m)        = m ^ (refreshed(m) ? k1 : k0)
//
// Each refresh step advances rp by one; if the address's partner under the
// key pair was not yet refreshed, the step swaps one physical line pair
// (two device writes — so a round over n lines costs n writes, i.e. a 1/ψ
// write overhead at swapping period ψ, matching the percentages the paper
// annotates in Fig 3). When rp completes the sweep, k0 <- k1 and a fresh
// random k1 starts the next round.
//
// TLSR composes two levels: an outer instance permutes subregions (moving
// whole subregions costs 2K writes per swap) and R inner instances permute
// lines within each logical subregion. The inner state travels with its
// logical subregion, so outer swaps preserve inner mappings.
package secref

import (
	"errors"
	"fmt"

	"nvmwear/internal/addr"
	"nvmwear/internal/nvm"
	"nvmwear/internal/rng"
	"nvmwear/internal/wl"
)

// Config parameterizes the scheme.
type Config struct {
	Lines   uint64 // logical lines (power of two)
	Regions uint64 // inner regions (power of two); 1 = single-level SR
	// InnerPeriod: demand writes to a region per inner refresh step.
	InnerPeriod uint64
	// OuterPeriod: one outer refresh step per OuterPeriod*K demand writes
	// to the whole memory (K = lines per region), giving the outer level a
	// 1/OuterPeriod write overhead. Ignored when Regions == 1.
	OuterPeriod uint64
	Seed        uint64
}

// sr is one Security Refresh instance over a space of n (power of two).
type sr struct {
	n      uint64
	k0, k1 uint64
	rp     uint64
	writes uint64
}

// translate maps an internal address through the instance.
func (s *sr) translate(m uint64) uint64 {
	d := s.k0 ^ s.k1
	if m < s.rp || m^d < s.rp {
		return m ^ s.k1
	}
	return m ^ s.k0
}

// Scheme is a (two-level) Security Refresh instance bound to a device.
type Scheme struct {
	wl.Driver
	cfg          Config
	dev          *nvm.Device
	k            uint64 // lines per region
	inner        []sr
	outer        sr
	outerCounter uint64
	outerTrigger uint64
	src          *rng.Source
	buf          []uint64 // staging for subregion swaps
	stats        wl.Stats
}

// Validate reports the first rule of the scheme's geometry that the
// configuration breaks, naming the field, or nil. New panics with the same
// error.
func (c Config) Validate() error {
	switch {
	case !addr.IsPow2(c.Lines):
		return fmt.Errorf("secref: Lines %d is not a power of two", c.Lines)
	case !addr.IsPow2(c.Regions):
		return fmt.Errorf("secref: Regions %d is not a power of two", c.Regions)
	case c.Regions > c.Lines:
		return fmt.Errorf("secref: Regions %d exceeds Lines %d", c.Regions, c.Lines)
	case c.InnerPeriod == 0:
		return errors.New("secref: InnerPeriod is zero")
	case c.Regions > 1 && c.OuterPeriod == 0:
		return fmt.Errorf("secref: OuterPeriod is zero with %d regions", c.Regions)
	}
	return nil
}

// New creates the scheme over dev. dev must have at least cfg.Lines lines.
func New(dev *nvm.Device, cfg Config) *Scheme {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if dev.Lines() < cfg.Lines {
		panic("secref: device smaller than logical space")
	}
	k := cfg.Lines / cfg.Regions
	s := &Scheme{
		cfg:          cfg,
		dev:          dev,
		k:            k,
		inner:        make([]sr, cfg.Regions),
		src:          rng.New(cfg.Seed ^ 0x5ec4ef5e5ec4ef5e),
		outerTrigger: cfg.OuterPeriod * k,
		buf:          make([]uint64, k),
	}
	for i := range s.inner {
		s.inner[i].n = k
	}
	s.outer.n = cfg.Regions
	s.Driver = wl.NewDriver(dev, s, &s.stats)
	return s
}

// newKey draws a fresh key distinct from prev when the space allows it.
func (s *Scheme) newKey(n, prev uint64) uint64 {
	if n <= 1 {
		return 0
	}
	for {
		k := s.src.Uint64n(n)
		if k != prev {
			return k
		}
	}
}

// Translate implements wl.Kernel.
func (s *Scheme) Translate(lma uint64) uint64 {
	ms, mi := lma/s.k, lma%s.k
	ps := s.outer.translate(ms)
	pi := s.inner[ms].translate(mi)
	return ps*s.k + pi
}

// Headroom implements wl.Kernel: a line's mapping only changes at an inner
// or outer refresh step, so it holds until the nearer of the two triggers.
func (s *Scheme) Headroom(lma uint64) uint64 {
	h := s.cfg.InnerPeriod - s.inner[lma/s.k].writes
	if s.cfg.Regions > 1 {
		h = min(h, s.outerTrigger-s.outerCounter)
	}
	return h
}

// Commit implements wl.Kernel. At a shared boundary the inner step runs
// before the outer one.
func (s *Scheme) Commit(lma, n uint64) {
	ms := lma / s.k
	in := &s.inner[ms]
	in.writes += n
	if in.writes >= s.cfg.InnerPeriod {
		in.writes = 0
		s.innerStep(ms)
	}
	if s.cfg.Regions > 1 {
		s.outerCounter += n
		if s.outerCounter >= s.outerTrigger {
			s.outerCounter = 0
			s.outerStep()
		}
	}
}

// innerStep performs one refresh step of region ms's inner instance,
// swapping one physical line pair inside the physical subregion currently
// holding ms.
func (s *Scheme) innerStep(ms uint64) {
	in := &s.inner[ms]
	m := in.rp
	in.rp++
	d := in.k0 ^ in.k1
	if d != 0 && m^d >= m {
		// Swap the physical pair holding MAs m and m^d.
		base := s.outer.translate(ms) * s.k
		p0 := base + (m ^ in.k0)
		p1 := base + (m ^ in.k1)
		tmp := s.dev.ReadData(p0)
		s.dev.MoveData(p0, p1)
		s.dev.WriteData(p1, tmp)
		s.stats.SwapWrites += 2
		s.stats.Remaps++
	}
	if in.rp == in.n {
		in.rp = 0
		in.k0 = in.k1
		in.k1 = s.newKey(in.n, in.k0)
	}
}

// outerStep performs one refresh step of the outer instance, swapping two
// whole physical subregions (2K device writes) when the step's pair is not
// yet refreshed.
func (s *Scheme) outerStep() {
	out := &s.outer
	m := out.rp
	out.rp++
	d := out.k0 ^ out.k1
	if d != 0 && m^d >= m {
		b0 := (m ^ out.k0) * s.k
		b1 := (m ^ out.k1) * s.k
		s.dev.ReadSpan(b0, 0, s.k, s.buf)
		s.dev.MoveSpan(b0, b1, s.k)
		s.dev.WriteSpan(b1, 0, s.k, s.buf)
		s.stats.SwapWrites += 2 * s.k
		s.stats.Remaps++
	}
	if out.rp == out.n {
		out.rp = 0
		out.k0 = out.k1
		out.k1 = s.newKey(out.n, out.k0)
	}
}

// Lines implements wl.Leveler.
func (s *Scheme) Lines() uint64 { return s.cfg.Lines }

// Name implements wl.Leveler.
func (s *Scheme) Name() string {
	if s.cfg.Regions == 1 {
		return "SR"
	}
	return "TLSR"
}

// OverheadBits implements wl.Leveler: per inner region two keys, the
// refresh pointer and a write counter; one outer instance of the same shape.
func (s *Scheme) OverheadBits() uint64 {
	kBits := uint64(addr.Log2(s.k)) + 1
	rBits := uint64(addr.Log2(s.cfg.Regions)) + 1
	const counterBits = 32
	per := 3*kBits + counterBits
	return s.cfg.Regions*per + 3*rBits + counterBits
}
