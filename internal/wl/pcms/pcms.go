// Package pcms implements PCM-S [Seznec, WEST'10], the paper's
// representative hybrid wear-leveling (HWL) scheme (Sec 2.1, Fig 2a).
//
// Memory is split into regions of Q lines. An on-chip table maps each
// logical region number (lrn) to a physical region number (prn) and an
// intra-region XOR key; a line's physical address is
//
//	pma = prn*Q + (lao ^ key)
//
// When a region accumulates Period*Q demand writes, it exchanges places
// with a uniformly random region and both receive fresh random keys: the
// 2Q-line exchange costs 2Q device writes, i.e. a 2/Period write overhead —
// the percentages annotated in the paper's Fig 4. Random whole-memory
// exchange is what lets hybrid schemes disperse even a repeated-address
// attack across the entire device.
package pcms

import (
	"errors"
	"fmt"

	"nvmwear/internal/addr"
	"nvmwear/internal/nvm"
	"nvmwear/internal/rng"
	"nvmwear/internal/wl"
)

// Config parameterizes PCM-S.
type Config struct {
	Lines       uint64 // logical lines (power of two)
	RegionLines uint64 // Q, lines per region (power of two)
	Period      uint64 // swapping period ψ: region swap per ψ*Q writes to it
	Seed        uint64
}

// entry is one region mapping.
type entry struct {
	prn uint32
	key uint32
}

// Scheme is a PCM-S instance bound to a device.
type Scheme struct {
	wl.Driver
	cfg     Config
	dev     *nvm.Device
	q       uint64
	regions uint64
	trigger uint64

	table   []entry
	counter []uint32
	src     *rng.Source
	bufA    []uint64
	bufB    []uint64

	stats wl.Stats
}

// Validate reports the first rule of the scheme's geometry that the
// configuration breaks, naming the field, or nil. New panics with the same
// error.
func (c Config) Validate() error {
	switch {
	case !addr.IsPow2(c.Lines):
		return fmt.Errorf("pcms: Lines %d is not a power of two", c.Lines)
	case !addr.IsPow2(c.RegionLines):
		return fmt.Errorf("pcms: RegionLines %d is not a power of two", c.RegionLines)
	case c.RegionLines > c.Lines:
		return fmt.Errorf("pcms: RegionLines %d exceeds Lines %d", c.RegionLines, c.Lines)
	case c.Period == 0:
		return errors.New("pcms: Period is zero")
	}
	return nil
}

// New creates the scheme over dev.
func New(dev *nvm.Device, cfg Config) *Scheme {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if dev.Lines() < cfg.Lines {
		panic("pcms: device smaller than logical space")
	}
	regions := cfg.Lines / cfg.RegionLines
	s := &Scheme{
		cfg:     cfg,
		dev:     dev,
		q:       cfg.RegionLines,
		regions: regions,
		trigger: cfg.Period * cfg.RegionLines,
		table:   make([]entry, regions),
		counter: make([]uint32, regions),
		src:     rng.New(cfg.Seed ^ 0x9c3559c3559c355),
		bufA:    make([]uint64, cfg.RegionLines),
		bufB:    make([]uint64, cfg.RegionLines),
	}
	for i := uint64(0); i < regions; i++ {
		s.table[i].prn = uint32(i)
	}
	s.Driver = wl.NewDriver(dev, s, &s.stats)
	return s
}

// Translate implements wl.Kernel.
func (s *Scheme) Translate(lma uint64) uint64 {
	lrn := lma / s.q
	e := s.table[lrn]
	return uint64(e.prn)*s.q + ((lma & (s.q - 1)) ^ uint64(e.key))
}

// Headroom implements wl.Kernel: a region's mapping only changes at an
// exchange, and only writes to a region advance its counter, so lma's
// mapping holds until its own region's trigger.
func (s *Scheme) Headroom(lma uint64) uint64 {
	return s.trigger - uint64(s.counter[lma/s.q])
}

// Commit implements wl.Kernel.
func (s *Scheme) Commit(lma, n uint64) {
	lrn := lma / s.q
	s.counter[lrn] += uint32(n)
	if uint64(s.counter[lrn]) >= s.trigger {
		s.counter[lrn] = 0
		s.exchange(lrn)
	}
}

// exchange swaps region r with a uniformly random region and re-keys both.
func (s *Scheme) exchange(r uint64) {
	s.stats.Remaps++
	partner := s.src.Uint64n(s.regions)
	newKeyR := uint32(s.src.Uint64n(s.q))
	er := &s.table[r]
	baseR := uint64(er.prn) * s.q

	if partner == r {
		// Self-exchange: re-key in place. Stage the region, rewrite per the
		// new key.
		s.dev.ReadSpan(baseR, uint64(er.key), s.q, s.bufA)
		er.key = newKeyR
		s.dev.WriteSpan(baseR, uint64(er.key), s.q, s.bufA)
		s.stats.SwapWrites += s.q
		return
	}

	ep := &s.table[partner]
	baseP := uint64(ep.prn) * s.q
	newKeyP := uint32(s.src.Uint64n(s.q))
	s.dev.ReadSpans(baseR, uint64(er.key), baseP, uint64(ep.key), s.q, s.bufA, s.bufB)
	er.prn, ep.prn = ep.prn, er.prn
	er.key, ep.key = newKeyR, newKeyP
	s.dev.WriteSpans(baseP, uint64(er.key), baseR, uint64(ep.key), s.q, s.bufA, s.bufB)
	s.stats.SwapWrites += 2 * s.q
}

// Lines implements wl.Leveler.
func (s *Scheme) Lines() uint64 { return s.cfg.Lines }

// Name implements wl.Leveler.
func (s *Scheme) Name() string { return "PCM-S" }

// OverheadBits implements wl.Leveler: the scheme keeps (prn, key) per
// region on chip (Sec 2.2 point 4), plus the write counter.
func (s *Scheme) OverheadBits() uint64 {
	rBits := uint64(addr.Log2(s.regions)) + 1
	qBits := uint64(addr.Log2(s.q)) + 1
	const counterBits = 24
	return s.regions * (rBits + qBits + counterBits)
}

// EntryBits returns the on-chip bits of one mapping entry (without the
// counter) — used by the Fig 5 cache-budget experiment.
func EntryBits(regions, regionLines uint64) uint64 {
	rBits := uint64(addr.Log2(regions)) + 1
	qBits := uint64(addr.Log2(regionLines)) + 1
	return rBits + qBits
}
