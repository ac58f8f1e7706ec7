// Package wolfram implements a WoLFRaM-style wear-leveling scheme
// [Gómez-Luna et al., WoLFRaM — see PAPERS.md]: a programmable resistive
// address decoder (PRAD) remaps individual lines by reprogramming decoder
// match entries, which makes remapping effectively free of indirection
// tables — the decoder *is* the mapping.
//
// Wear leveling rides on that primitive: every Period demand writes, the
// decoder swaps the just-written line with a uniformly random partner line
// (write-access pattern randomization). Because remapping is line-granular
// a swap moves just two lines, so the write overhead is 2/Period — far
// finer than region- or page-granular schemes.
//
// WoLFRaM's second pitch is integrated fault tolerance: when the device
// retires a worn or faulted line to a spare, the very same decoder entry
// absorbs the replacement. This implementation models that by registering
// an nvm retire hook and folding the device's spare remaps into the
// scheme's Remaps counter — one indirection layer shared by wear leveling
// and fault remapping, instead of a second table stacked on the spare area
// (no TableWrites are charged, matching the decoder's in-place
// reprogramming).
package wolfram

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
	Lines  uint64 // logical lines (power of two)
	Period uint64 // swap the written line with a random partner per Period demand writes
	Seed   uint64
}

// Scheme is a wolfram instance bound to a device.
type Scheme struct {
	wl.Driver
	cfg Config
	dev *nvm.Device

	perm    []uint32 // logical line -> physical line (the decoder state)
	inv     []uint32 // physical line -> logical line
	counter uint64   // demand writes since the last swap
	src     *rng.Source

	stats wl.Stats
}

// Validate reports the first rule of the scheme's geometry that the
// configuration breaks, naming the field, or nil. New panics with the same
// error.
func (c Config) Validate() error {
	switch {
	case !addr.IsPow2(c.Lines):
		return fmt.Errorf("wolfram: Lines %d is not a power of two", c.Lines)
	case c.Period == 0:
		return errors.New("wolfram: Period is zero")
	}
	return nil
}

// New creates the scheme over dev and registers the retire hook that folds
// the device's spare remaps into the decoder's remap accounting.
func New(dev *nvm.Device, cfg Config) *Scheme {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if dev.Lines() < cfg.Lines {
		panic("wolfram: device smaller than logical space")
	}
	s := &Scheme{
		cfg:  cfg,
		dev:  dev,
		perm: make([]uint32, cfg.Lines),
		inv:  make([]uint32, cfg.Lines),
		src:  rng.New(cfg.Seed ^ 0x3fb9d0c5a7f1744d),
	}
	for i := uint64(0); i < cfg.Lines; i++ {
		s.perm[i] = uint32(i)
		s.inv[i] = uint32(i)
	}
	// Spare replacements reprogram the same decoder entries the wear
	// leveler uses: count them as decoder remaps rather than modeling a
	// second indirection over the spare area.
	dev.SetRetireHook(func(uint64) { s.stats.Remaps++ })
	s.Driver = wl.NewDriver(dev, s, &s.stats)
	return s
}

// Translate implements wl.Kernel.
func (s *Scheme) Translate(lma uint64) uint64 { return uint64(s.perm[lma]) }

// Headroom implements wl.Kernel: the mapping only changes at a swap, and
// the swap interval is a global write counter.
func (s *Scheme) Headroom(uint64) uint64 { return s.cfg.Period - s.counter }

// Commit implements wl.Kernel.
func (s *Scheme) Commit(lma, n uint64) {
	s.counter += n
	if s.counter >= s.cfg.Period {
		s.counter = 0
		s.swap(lma)
	}
}

// swap exchanges the just-written logical line with a uniformly random
// partner by reprogramming their two decoder entries. A self-partner draw
// reprograms the entry onto itself: no data moves.
func (s *Scheme) swap(lma uint64) {
	s.stats.Remaps++
	partner := s.src.Uint64n(s.cfg.Lines)
	if partner == lma {
		return
	}
	pa, pb := uint64(s.perm[lma]), uint64(s.perm[partner])
	da := s.dev.ReadData(pa)
	db := s.dev.ReadData(pb)
	s.perm[lma], s.perm[partner] = s.perm[partner], s.perm[lma]
	s.inv[pa], s.inv[pb] = s.inv[pb], s.inv[pa]
	s.dev.WriteData(pb, da)
	s.dev.WriteData(pa, db)
	s.stats.SwapWrites += 2
}

// Lines implements wl.Leveler.
func (s *Scheme) Lines() uint64 { return s.cfg.Lines }

// Name implements wl.Leveler.
func (s *Scheme) Name() string { return "WoLFRaM" }

// OverheadBits implements wl.Leveler: the mapping lives *in* the address
// decoder, not in a table the controller must carry; the only conventional
// state is the swap counter and period register.
func (s *Scheme) OverheadBits() uint64 { return 64 }
