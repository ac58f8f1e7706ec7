// Package softwear implements a SoftWear-style software-only wear-leveling
// scheme [Boukhobza et al., SoftWear — see PAPERS.md]: page-granularity
// remapping driven entirely by write counts the *software* observes, with
// no per-line hardware counters, no on-chip mapping table and no random
// keys.
//
// The OS cannot afford to count every write, so it samples: every S-th
// demand write it observes is charged twice in software (DRAM-resident
// state, hence OverheadBits() == 0 on-chip) — to the written page's epoch
// counter, which detects hotness, and to the written frame's cumulative
// wear estimate, which never resets. When a page's epoch count reaches the
// trigger T, the software concludes the page is hot and moves it to the
// least-worn physical frame (minimum wear estimate, lowest frame number on
// ties — a deterministic choice that needs no RNG at all), swapping data
// with whatever page lived there. The hot page's epoch counter resets so
// the next epoch observes fresh traffic.
//
// Compared to the hardware schemes in this catalogue, softwear trades
// precision (sampling misses short bursts below S writes) and granularity
// (whole pages move, costing 2*PageLines device writes per swap) for zero
// hardware cost — exactly the trade SoftWear argues for in-memory NVM.
package softwear

import (
	"errors"
	"fmt"

	"nvmwear/internal/addr"
	"nvmwear/internal/nvm"
	"nvmwear/internal/wl"
)

// Config parameterizes the scheme.
type Config struct {
	Lines        uint64 // logical lines (power of two)
	PageLines    uint64 // lines per remapped page (power of two)
	SamplePeriod uint64 // S: every S-th demand write is charged to its page
	Trigger      uint64 // T: sampled count at which a page is declared hot
}

// Scheme is a softwear instance bound to a device.
type Scheme struct {
	wl.Driver
	cfg    Config
	dev    *nvm.Device
	q      uint64 // lines per page
	pages  uint64
	sample uint64 // S
	trig   uint32 // T

	perm  []uint32            // logical page -> physical frame
	inv   []uint32            // physical frame -> logical page
	count []uint32            // sampled epoch write count per logical page (resets on rotate)
	wear  *wl.Coldest[uint32] // sampled cumulative wear estimate per physical frame
	g     uint64              // global demand-write counter (drives sampling)
	bufA  []uint64
	bufB  []uint64

	stats wl.Stats
}

// Validate reports the first rule of the scheme's geometry that the
// configuration breaks, naming the field, or nil. New panics with the same
// error.
func (c Config) Validate() error {
	switch {
	case !addr.IsPow2(c.Lines):
		return fmt.Errorf("softwear: Lines %d is not a power of two", c.Lines)
	case !addr.IsPow2(c.PageLines):
		return fmt.Errorf("softwear: PageLines %d is not a power of two", c.PageLines)
	case c.PageLines > c.Lines/2:
		return fmt.Errorf("softwear: PageLines %d leaves fewer than two pages in Lines %d", c.PageLines, c.Lines)
	case c.SamplePeriod == 0 || c.Trigger == 0:
		return errors.New("softwear: SamplePeriod or Trigger is zero")
	}
	return nil
}

// New creates the scheme over dev.
func New(dev *nvm.Device, cfg Config) *Scheme {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if dev.Lines() < cfg.Lines {
		panic("softwear: device smaller than logical space")
	}
	pages := cfg.Lines / cfg.PageLines
	s := &Scheme{
		cfg:    cfg,
		dev:    dev,
		q:      cfg.PageLines,
		pages:  pages,
		sample: cfg.SamplePeriod,
		trig:   uint32(cfg.Trigger),
		perm:   make([]uint32, pages),
		inv:    make([]uint32, pages),
		count:  make([]uint32, pages),
		wear:   wl.NewColdest[uint32](int(pages)),
		bufA:   make([]uint64, cfg.PageLines),
		bufB:   make([]uint64, cfg.PageLines),
	}
	for i := uint64(0); i < pages; i++ {
		s.perm[i] = uint32(i)
		s.inv[i] = uint32(i)
	}
	s.Driver = wl.NewDriver(dev, s, &s.stats)
	return s
}

// Translate implements wl.Kernel: pages relocate whole, line offsets
// within a page are identity (software cannot scramble a hardware row).
func (s *Scheme) Translate(lma uint64) uint64 {
	return uint64(s.perm[lma/s.q])*s.q + (lma & (s.q - 1))
}

// Headroom implements wl.Kernel. Sampling charges only the written page,
// so the mapping holds until this page's own trigger: sample number
// g/S + (T - count), which lands on demand write (g/S + (T-count))*S.
func (s *Scheme) Headroom(lma uint64) uint64 {
	return (s.g/s.sample+uint64(s.trig-s.count[lma/s.q]))*s.sample - s.g
}

// Commit implements wl.Kernel: every S-th demand write is a sample charged
// to the written page's epoch counter and to its frame's wear estimate.
func (s *Scheme) Commit(lma, n uint64) {
	samples := (s.g+n)/s.sample - s.g/s.sample
	s.g += n
	if samples == 0 {
		return
	}
	lpn := lma / s.q
	s.count[lpn] += uint32(samples)
	s.wear.Add(int(s.perm[lpn]), uint32(samples))
	if s.count[lpn] >= s.trig {
		s.rotate(lpn)
	}
}

// rotate moves hot page `hot` to the least-worn physical frame (minimum
// cumulative wear estimate, lowest frame number on ties, the hot page's own
// frame excluded), swapping data with the page that lived there, and resets
// the hot page's epoch counter. The software policy looks for that frame in
// DRAM, free of on-chip state; the simulator asks its coldest index.
func (s *Scheme) rotate(hot uint64) {
	s.stats.Remaps++
	s.count[hot] = 0
	fh := uint64(s.perm[hot])
	fv := uint64(s.wear.MinExcluding(int(fh)))
	victim := uint64(s.inv[fv])
	baseH, baseV := fh*s.q, fv*s.q
	s.dev.ReadSpans(baseH, 0, baseV, 0, s.q, s.bufA, s.bufB)
	s.perm[hot], s.perm[victim] = s.perm[victim], s.perm[hot]
	s.inv[fh], s.inv[fv] = s.inv[fv], s.inv[fh]
	s.dev.WriteSpans(baseV, 0, baseH, 0, s.q, s.bufA, s.bufB)
	s.stats.SwapWrites += 2 * s.q
}

// Lines implements wl.Leveler.
func (s *Scheme) Lines() uint64 { return s.cfg.Lines }

// Name implements wl.Leveler.
func (s *Scheme) Name() string { return "SoftWear" }

// OverheadBits implements wl.Leveler: zero. The page table and the sampled
// counters live in ordinary DRAM managed by software — SoftWear's whole
// premise is that the memory controller carries no wear-leveling state.
func (s *Scheme) OverheadBits() uint64 { return 0 }
