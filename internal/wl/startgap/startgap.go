// Package startgap implements Start-Gap wear leveling [Qureshi+ MICRO'09]
// and its region-based variant RBSG (Sec 2.1, Fig 1b).
//
// A region of N logical lines occupies N+1 physical lines; the extra line
// is the "gap". Every ψ demand writes, the line ahead of the gap moves into
// it, sliding the gap one slot down; after the gap sweeps the whole region,
// the start register advances, so every line has migrated by one slot per
// round. The mapping is the algebraic function
//
//	p = (la + start) mod N; if p >= gap { p = p + 1 }
//
// so no per-line table is needed. RBSG statically partitions the memory
// into regions by the address high bits, each with its own start/gap — but
// a line can never leave its region, the RAA weakness Sec 2.2 describes:
// an attacker repeatedly writing one address wears out the whole region at
// N+1 times the single-line rate while the rest of the device idles.
package startgap

import (
	"errors"
	"fmt"

	"nvmwear/internal/nvm"
	"nvmwear/internal/wl"
)

// Config parameterizes RBSG. With Regions == 1 the scheme is classic
// Start-Gap over the whole memory.
type Config struct {
	Lines   uint64 // logical lines (multiple of Regions)
	Regions uint64 // independent start-gap regions
	Period  uint64 // demand writes per gap movement (per region)
}

// region is one start-gap instance.
type region struct {
	start  uint64
	gap    uint64
	writes uint64
}

// Scheme is an RBSG instance. The device must have Lines + Regions physical
// lines (one gap line per region); region r occupies the physical range
// [r*(K+1), (r+1)*(K+1)) where K = Lines/Regions.
type Scheme struct {
	wl.Driver
	cfg     Config
	dev     *nvm.Device
	k       uint64 // logical lines per region
	regions []region
	stats   wl.Stats
}

// ExtraLines returns the number of physical lines the configuration needs
// beyond the logical space (one gap line per region).
func (c Config) ExtraLines() uint64 { return c.Regions }

// Validate reports the first rule of the scheme's geometry that the
// configuration breaks, naming the field, or nil. New panics with the same
// error.
func (c Config) Validate() error {
	switch {
	case c.Regions == 0 || c.Lines%c.Regions != 0:
		return fmt.Errorf("startgap: Lines %d is not a nonzero multiple of Regions %d", c.Lines, c.Regions)
	case c.Period == 0:
		return errors.New("startgap: Period is zero")
	}
	return nil
}

// New creates the scheme over dev.
func New(dev *nvm.Device, cfg Config) *Scheme {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if dev.Lines() < cfg.Lines+cfg.Regions {
		panic("startgap: device lacks gap lines")
	}
	k := cfg.Lines / cfg.Regions
	s := &Scheme{cfg: cfg, dev: dev, k: k, regions: make([]region, cfg.Regions)}
	for i := range s.regions {
		s.regions[i].gap = k // gap starts at the spare slot after the data
	}
	s.Driver = wl.NewDriver(dev, s, &s.stats)
	return s
}

// Translate implements wl.Kernel.
func (s *Scheme) Translate(lma uint64) uint64 {
	r := lma / s.k
	la := lma % s.k
	reg := &s.regions[r]
	p := la + reg.start
	if p >= s.k {
		p -= s.k
	}
	if p >= reg.gap {
		p++
	}
	return r*(s.k+1) + p
}

// Headroom implements wl.Kernel: a region's mapping only changes at a gap
// movement, so lma's mapping holds until its region reaches the period.
func (s *Scheme) Headroom(lma uint64) uint64 {
	return s.cfg.Period - s.regions[lma/s.k].writes
}

// Commit implements wl.Kernel.
func (s *Scheme) Commit(lma, n uint64) {
	r := lma / s.k
	reg := &s.regions[r]
	reg.writes += n
	if reg.writes >= s.cfg.Period {
		reg.writes = 0
		s.moveGap(r)
	}
}

// moveGap performs one gap movement in region r: one line copies into the
// gap slot (one device write).
func (s *Scheme) moveGap(r uint64) {
	reg := &s.regions[r]
	base := r * (s.k + 1)
	s.stats.Remaps++
	s.stats.SwapWrites++
	if reg.gap == 0 {
		// Wrap: the line in the last slot moves to slot 0; a full round has
		// completed, so the start register advances.
		s.dev.MoveData(base, base+s.k)
		reg.gap = s.k
		reg.start++
		if reg.start == s.k {
			reg.start = 0
		}
	} else {
		s.dev.MoveData(base+reg.gap, base+reg.gap-1)
		reg.gap--
	}
}

// Lines implements wl.Leveler.
func (s *Scheme) Lines() uint64 { return s.cfg.Lines }

// Name implements wl.Leveler.
func (s *Scheme) Name() string {
	if s.cfg.Regions == 1 {
		return "StartGap"
	}
	return "RBSG"
}

// OverheadBits implements wl.Leveler: two registers plus a write counter
// per region.
func (s *Scheme) OverheadBits() uint64 {
	lineBits := uint64(1)
	for 1<<lineBits < s.k+1 {
		lineBits++
	}
	const counterBits = 32
	return s.cfg.Regions * (2*lineBits + counterBits)
}
