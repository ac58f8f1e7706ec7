// Package mwsr implements MWSR, multi-way wear leveling [Yu & Du, IEEE TC
// 2014], the paper's second hybrid wear-leveling baseline (Sec 2.1, Fig 2b).
//
// Like PCM-S, MWSR maps logical regions to physical regions with a
// per-region XOR key. The difference is how an exchange proceeds: instead
// of a blocking 2Q-line swap, MWSR migrates a region pair incrementally —
// one line pair per ψ/2 subsequent demand writes — keeping both the
// previous-round and current-round mappings live until migration finishes.
// That is why its table stores two physical addresses, two offsets and a
// write counter per region (the storage-overhead point of Sec 2.2, item 4),
// and why the paper reports lifetimes similar to PCM-S with different
// performance behaviour.
//
// A migrating pair (regions r and s, old physical frames P1 and P2, offset
// delta d) swaps physical lines (P1, u) <-> (P2, u^d) in increasing u. A
// line of r at old offset u has moved iff u < progress; a line of s at old
// offset v has moved iff v^d < progress. Choosing both regions' new keys as
// oldKey^d makes the final state a plain XOR mapping again.
package mwsr

import (
	"errors"
	"fmt"

	"nvmwear/internal/addr"
	"nvmwear/internal/nvm"
	"nvmwear/internal/rng"
	"nvmwear/internal/wl"
)

// Config parameterizes MWSR.
type Config struct {
	Lines       uint64 // logical lines (power of two)
	RegionLines uint64 // Q (power of two)
	Period      uint64 // ψ: a region starts a migration per ψ*Q writes
	Seed        uint64
}

// entry is one region's settled mapping.
type entry struct {
	prn uint32
	key uint32
}

// migration is an in-flight region-pair exchange.
type migration struct {
	r, s     uint64 // logical regions (r == s means self re-key)
	p1, p2   uint64 // their old physical frames
	d        uint64 // offset delta; new keys are oldKey ^ d
	keyR     uint64 // r's old key
	keyS     uint64 // s's old key
	progress uint64 // pairs swapped so far (sweeps u = 0..Q-1)
	writeCtr uint64 // demand writes since last step
}

// Scheme is an MWSR instance bound to a device.
type Scheme struct {
	wl.Driver
	cfg     Config
	dev     *nvm.Device
	q       uint64
	regions uint64
	trigger uint64
	advance uint64 // demand writes per migration step

	table   []entry
	counter []uint32
	migOf   []int32     // region -> index into migs, or -1
	migs    []migration // in-flight migrations; free slots listed in free
	free    []int
	src     *rng.Source

	stats wl.Stats
}

// Validate reports the first rule of the scheme's geometry that the
// configuration breaks, naming the field, or nil. New panics with the same
// error.
func (c Config) Validate() error {
	switch {
	case !addr.IsPow2(c.Lines):
		return fmt.Errorf("mwsr: Lines %d is not a power of two", c.Lines)
	case !addr.IsPow2(c.RegionLines):
		return fmt.Errorf("mwsr: RegionLines %d is not a power of two", c.RegionLines)
	case c.RegionLines > c.Lines:
		return fmt.Errorf("mwsr: RegionLines %d exceeds Lines %d", c.RegionLines, c.Lines)
	case c.Period == 0:
		return errors.New("mwsr: Period is zero")
	}
	return nil
}

// New creates the scheme over dev.
func New(dev *nvm.Device, cfg Config) *Scheme {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if dev.Lines() < cfg.Lines {
		panic("mwsr: device smaller than logical space")
	}
	regions := cfg.Lines / cfg.RegionLines
	adv := cfg.Period / 2
	if adv == 0 {
		adv = 1
	}
	s := &Scheme{
		cfg:     cfg,
		dev:     dev,
		q:       cfg.RegionLines,
		regions: regions,
		trigger: cfg.Period * cfg.RegionLines,
		advance: adv,
		table:   make([]entry, regions),
		counter: make([]uint32, regions),
		migOf:   make([]int32, regions),
		src:     rng.New(cfg.Seed ^ 0x3b9d3b9d3b9d3b9d),
	}
	for i := uint64(0); i < regions; i++ {
		s.table[i].prn = uint32(i)
		s.migOf[i] = -1
	}
	s.Driver = wl.NewDriver(dev, s, &s.stats)
	return s
}

// Translate implements wl.Kernel.
func (s *Scheme) Translate(lma uint64) uint64 {
	lrn := lma / s.q
	lao := lma & (s.q - 1)
	if mi := s.migOf[lrn]; mi >= 0 {
		m := &s.migs[mi]
		if lrn == m.r {
			u := lao ^ m.keyR
			if u < m.progress || (m.r == m.s && u^m.d < m.progress) {
				return m.p2*s.q + (u ^ m.d)
			}
			return m.p1*s.q + u
		}
		v := lao ^ m.keyS
		if v^m.d < m.progress {
			return m.p1*s.q + (v ^ m.d)
		}
		return m.p2*s.q + v
	}
	e := s.table[lrn]
	return uint64(e.prn)*s.q + (lao ^ uint64(e.key))
}

// Headroom implements wl.Kernel. A settled region's mapping only changes
// when its own counter triggers a migration. While the region migrates,
// any write may step the migration and move one line pair, so the headroom
// is a single write.
func (s *Scheme) Headroom(lma uint64) uint64 {
	lrn := lma / s.q
	if s.migOf[lrn] >= 0 {
		return 1
	}
	return s.trigger - uint64(s.counter[lrn])
}

// Commit implements wl.Kernel. A write to a migrating region (n == 1, see
// Headroom) first advances the migration by one step every ψ/2 writes.
func (s *Scheme) Commit(lma, n uint64) {
	lrn := lma / s.q
	if mi := s.migOf[lrn]; mi >= 0 {
		m := &s.migs[mi]
		m.writeCtr += n
		if m.writeCtr >= s.advance {
			m.writeCtr = 0
			s.step(int(mi))
		}
	}
	s.counter[lrn] += uint32(n)
	if uint64(s.counter[lrn]) >= s.trigger {
		if s.migOf[lrn] >= 0 {
			// A round cannot start while the region is still migrating;
			// hold the counter at the threshold and retry next write.
			s.counter[lrn] = uint32(s.trigger - 1)
		} else {
			s.counter[lrn] = 0
			s.begin(lrn)
		}
	}
}

// begin starts a migration for region r with a random partner. If the
// chosen partner is already migrating the trigger is deferred by one write.
func (s *Scheme) begin(r uint64) {
	partner := s.src.Uint64n(s.regions)
	if s.migOf[partner] >= 0 {
		// Defer: re-arm the counter so the next write retries.
		s.counter[r] = uint32(s.trigger - 1)
		return
	}
	s.stats.Remaps++
	d := uint64(0)
	for d == 0 && s.q > 1 {
		d = s.src.Uint64n(s.q)
	}
	m := migration{
		r: r, s: partner,
		p1: uint64(s.table[r].prn), p2: uint64(s.table[partner].prn),
		d:    d,
		keyR: uint64(s.table[r].key), keyS: uint64(s.table[partner].key),
	}
	var mi int
	if len(s.free) > 0 {
		mi = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		s.migs[mi] = m
	} else {
		mi = len(s.migs)
		s.migs = append(s.migs, m)
	}
	s.migOf[r] = int32(mi)
	s.migOf[partner] = int32(mi)
	if s.q == 1 && d == 0 && r == partner {
		// Degenerate single-line region self-pick: nothing to do.
		s.finish(mi)
	}
}

// step performs one migration step: swap one physical line pair.
func (s *Scheme) step(mi int) {
	m := &s.migs[mi]
	u := m.progress
	if m.r == m.s {
		// Self re-key: pairs (u, u^d) inside one frame; skip the second
		// visit of each pair.
		if u^m.d > u {
			a := m.p1*s.q + u
			b := m.p1*s.q + (u ^ m.d)
			tmp := s.dev.ReadData(a)
			s.dev.MoveData(a, b)
			s.dev.WriteData(b, tmp)
			s.stats.SwapWrites += 2
		}
	} else {
		a := m.p1*s.q + u
		b := m.p2*s.q + (u ^ m.d)
		tmp := s.dev.ReadData(a)
		s.dev.MoveData(a, b)
		s.dev.WriteData(b, tmp)
		s.stats.SwapWrites += 2
	}
	m.progress++
	if m.progress == s.q {
		s.finish(mi)
	}
}

// finish commits the migration into the settled table.
func (s *Scheme) finish(mi int) {
	m := &s.migs[mi]
	if m.r == m.s {
		s.table[m.r].key = uint32(m.keyR ^ m.d)
	} else {
		s.table[m.r] = entry{prn: uint32(m.p2), key: uint32(m.keyR ^ m.d)}
		s.table[m.s] = entry{prn: uint32(m.p1), key: uint32(m.keyS ^ m.d)}
	}
	s.migOf[m.r] = -1
	s.migOf[m.s] = -1
	s.free = append(s.free, mi)
}

// Lines implements wl.Leveler.
func (s *Scheme) Lines() uint64 { return s.cfg.Lines }

// Name implements wl.Leveler.
func (s *Scheme) Name() string { return "MWSR" }

// OverheadBits implements wl.Leveler: two physical addresses, two offsets
// and a write counter per region (Sec 2.2 item 4).
func (s *Scheme) OverheadBits() uint64 {
	rBits := uint64(addr.Log2(s.regions)) + 1
	qBits := uint64(addr.Log2(s.q)) + 1
	const counterBits = 24
	return s.regions * (2*rBits + 2*qBits + counterBits)
}

// EntryBits returns the on-chip bits of one mapping entry (without the
// counter) — used by the Fig 5 cache-budget experiment.
func EntryBits(regions, regionLines uint64) uint64 {
	rBits := uint64(addr.Log2(regions)) + 1
	qBits := uint64(addr.Log2(regionLines)) + 1
	return 2*rBits + 2*qBits
}
