// Package core implements the paper's contribution: the tiered wear-level
// architecture with Self-Adaptive Wear Leveling (SAWL), Sec 3.
//
// The architecture (Fig 6) stores the full Integrated Mapping Table (IMT)
// in a reserved area of the NVM, caches recently-used entries in a small
// on-chip Cached Mapping Table (CMT), and wear-levels the translation lines
// themselves through the Global Translation Directory (GTD). The data
// exchange module runs the PCM-S hybrid algorithm (the paper adopts PCM-S
// in its data exchange module, Sec 3.1) at whatever granularity each region
// currently has.
//
// SAWL's novelty is making the wear-leveling granularity adaptive
// (Sec 3.2): when the CMT hit rate stays below a low threshold for a
// settling window, adjacent regions merge (each entry then covers more
// addresses, raising the hit rate); when the hit rate stays high and the
// hits concentrate in the first half of the LRU stack, regions split back
// (finer granularity wears more evenly) — splits are free because the XOR
// intra-region mapping keeps both halves physically contiguous (Fig 9/10).
// With Adaptive=false the engine is exactly the paper's naive tiered
// scheme, NWL-P.
package core

import (
	"fmt"

	"nvmwear/internal/addr"
	"nvmwear/internal/cmt"
	"nvmwear/internal/fault"
	"nvmwear/internal/gtd"
	"nvmwear/internal/imt"
	"nvmwear/internal/metrics"
	"nvmwear/internal/nvm"
	"nvmwear/internal/rng"
	"nvmwear/internal/trace"
	"nvmwear/internal/wl"
)

// Sample is a periodic snapshot passed to Config.OnSample — the data behind
// Figs 12-14 (hit-rate and region-size trajectories).
type Sample struct {
	Requests       uint64  // total requests so far
	HitRate        float64 // observation-window CMT hit rate
	AvgRegionLines float64 // average cached region size in lines
	Mode           Mode    // current adaptation mode
}

// Mode is the adaptation state.
type Mode uint8

// Adaptation modes.
const (
	ModeSteady Mode = iota
	ModeMerge
	ModeSplit
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeMerge:
		return "merge"
	case ModeSplit:
		return "split"
	default:
		return "steady"
	}
}

// The paper's fixed parameters (Sec 3.1, 3.2, 4.2, 4.5).
const (
	lowThreshold   = 0.90 // hit rate below which regions merge
	highThreshold  = 0.95 // hit rate above which regions split
	entriesPerLine = 6    // K: IMT entries per translation line
	gtdGranularity = 32   // Kt: translation lines per GTD region
)

// Config parameterizes the tiered engine.
type Config struct {
	Lines    uint64 // M: logical data lines (power of two)
	InitGran uint64 // P: initial wear-leveling granularity in lines (default 4)
	// MaxGranLines caps the region size merges can reach (default 256).
	MaxGranLines uint64
	// Period is the data-exchange swapping period ψ: a region of Q lines
	// exchanges after ψ*Q demand writes (default 128, the Sec 4.3/4.4
	// setting).
	Period uint64
	// CMTEntries is the on-chip cache capacity in entries (default 32768 —
	// a 256 KB CMT at 8 B per entry, Table 1).
	CMTEntries int

	// Adaptive enables region merge/split. Off = the naive tiered scheme
	// (NWL) at fixed granularity InitGran.
	Adaptive bool

	// Adaptation windows (Sec 4.2 defaults; the merge/split thresholds are
	// the constants lowThreshold and highThreshold).
	SubQueueThreshold float64 // LRU sub-queue imbalance (default 0.99)
	ObservationWindow uint64  // SOW (default 1<<22)
	SettlingWindow    uint64  // SSW (default 1<<22)
	CheckEvery        uint64  // hit-rate sampling interval (default 100000)

	GTDPeriod uint64 // GTD swapping period (default 128)

	Seed uint64

	// Fault enables metadata-fault injection on the NVM-resident mapping
	// table (internal/fault, StreamMetadata substream): translation-line
	// writes may corrupt one stored entry, detected by per-entry checksums
	// on fetch and rebuilt from the engine's inverse table. The zero value
	// disables injection and adds no work to any path.
	Fault fault.Config

	// OnSample, when set, is invoked every CheckEvery requests.
	OnSample func(Sample)
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.InitGran == 0 {
		c.InitGran = 4
	}
	if c.MaxGranLines == 0 {
		c.MaxGranLines = 256
	}
	if c.Period == 0 {
		c.Period = 128
	}
	if c.CMTEntries == 0 {
		c.CMTEntries = 32768
	}
	if c.SubQueueThreshold == 0 {
		c.SubQueueThreshold = 0.99
	}
	if c.ObservationWindow == 0 {
		c.ObservationWindow = 1 << 22
	}
	if c.SettlingWindow == 0 {
		c.SettlingWindow = 1 << 22
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = 100000
	}
	if c.GTDPeriod == 0 {
		c.GTDPeriod = 128
	}
	return c
}

// TranslationArea returns the reserved-space geometry implied by the
// configuration: the number of translation lines and the physical lines
// they occupy once rounded to GTD regions.
func (c Config) TranslationArea() (transLines, physLines uint64) {
	c = c.withDefaults()
	tl := imt.TranslationLines(c.Lines, c.InitGran, entriesPerLine)
	g := gtd.Config{Lines: tl, Granularity: gtdGranularity}
	return tl, g.PhysLines()
}

// DeviceLines returns the total physical lines the engine needs: the data
// space plus the reserved translation area.
func (c Config) DeviceLines() uint64 {
	_, phys := c.TranslationArea()
	return c.Lines + phys
}

// Scheme is the tiered engine bound to a device.
type Scheme struct {
	cfg      Config
	dev      *nvm.Device
	p        uint64 // initial granularity in lines
	pShift   uint   // log2(p): the hot path shifts instead of dividing
	nRegions uint64 // R0: initial-granularity regions
	maxLevel uint8

	table *imt.Table
	dir   *gtd.Directory
	cache *cmt.Cache
	rev   []uint32 // physical initial slot -> logical initial region
	ctr   []uint32 // demand-write counter, valid at each region's base

	src    *rng.Source
	bufA   []uint64
	bufB   []uint64
	revBuf []uint32 // relocateOccupants snapshot scratch

	window   *metrics.HitWindow
	mode     Mode
	lowRun   uint64
	highRun  uint64
	requests uint64

	// metaFaults records whether the IMT runs with fault injection armed;
	// the batch path may only fold split-mode accesses when it is off
	// (trySplit's table lookup is observable under injection).
	metaFaults bool

	stats  wl.Stats
	merges uint64
	splits uint64
}

// Validate reports the first rule of the engine's geometry that the
// (defaulted) configuration breaks, naming the field, or nil. New panics
// with the same error; NewSystem returns it.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case !addr.IsPow2(c.Lines):
		return fmt.Errorf("core: Lines %d is not a power of two", c.Lines)
	case !addr.IsPow2(c.InitGran):
		return fmt.Errorf("core: InitGran %d is not a power of two", c.InitGran)
	case c.InitGran > c.Lines:
		return fmt.Errorf("core: InitGran %d exceeds Lines %d", c.InitGran, c.Lines)
	case !addr.IsPow2(c.MaxGranLines) || c.MaxGranLines < c.InitGran:
		return fmt.Errorf("core: MaxGranLines %d is not a power of two >= InitGran %d", c.MaxGranLines, c.InitGran)
	case c.CMTEntries < 1 || c.CMTEntries > cmt.MaxCapacity:
		return fmt.Errorf("core: CMTEntries %d outside [1, %d]", c.CMTEntries, cmt.MaxCapacity)
	}
	return nil
}

// New creates the engine over dev, which must provide cfg.DeviceLines()
// physical lines. It panics on a configuration Validate rejects.
func New(dev *nvm.Device, cfg Config) *Scheme {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	cfg = cfg.withDefaults()
	if dev.Lines() < cfg.DeviceLines() {
		panic("core: device smaller than data + translation area")
	}
	transLines, _ := cfg.TranslationArea()
	dir := gtd.New(dev, gtd.Config{
		Base:        cfg.Lines,
		Lines:       transLines,
		Granularity: gtdGranularity,
		Period:      cfg.GTDPeriod,
		Seed:        cfg.Seed ^ 0x61d,
	})
	nRegions := cfg.Lines / cfg.InitGran
	maxLevel := uint8(addr.Log2(cfg.MaxGranLines / cfg.InitGran))
	// A region cannot outgrow the memory itself.
	if uint64(1)<<maxLevel > nRegions {
		maxLevel = uint8(addr.Log2(nRegions))
	}
	s := &Scheme{
		cfg:      cfg,
		dev:      dev,
		p:        cfg.InitGran,
		pShift:   uint(addr.Log2(cfg.InitGran)),
		nRegions: nRegions,
		maxLevel: maxLevel,
		table:    imt.New(dir, cfg.Lines, cfg.InitGran, entriesPerLine),
		dir:      dir,
		cache:    cmt.New(cfg.CMTEntries, nRegions),
		rev:      make([]uint32, nRegions),
		ctr:      make([]uint32, nRegions),
		src:      rng.New(cfg.Seed ^ 0x5a317a5317a53),
		bufA:     make([]uint64, cfg.MaxGranLines),
		bufB:     make([]uint64, cfg.MaxGranLines),
		revBuf:   make([]uint32, cfg.MaxGranLines),
		window:   metrics.NewHitWindow(cfg.ObservationWindow, 64),
	}
	for i := uint64(0); i < nRegions; i++ {
		s.rev[i] = uint32(i)
	}
	if inj := fault.NewInjector(cfg.Fault, fault.StreamMetadata); inj != nil {
		s.table.EnableFaults(inj, s.rebuildEntry)
		s.metaFaults = true
	}
	return s
}

// rebuildEntry recovers a corrupted IMT entry from the inverse table: it
// scans rev for any physical slot holding a sub-entry of the region
// covering idx, derives the region's physical number and the high (slot-
// level) key bits from that slot, and brute-forces the low
// (intra-initial-granularity) key bits — which rev cannot see — against the
// stored checksum. ok is false when no candidate reproduces the checksum;
// the returned fallback (low key bits zero) is still a valid bijection.
func (s *Scheme) rebuildEntry(idx uint64, level uint8, want uint16) (uint64, bool) {
	span := uint64(1) << level
	base := idx &^ (span - 1)
	for slot := uint64(0); slot < s.nRegions; slot++ {
		lrn := uint64(s.rev[slot])
		if lrn < base || lrn >= base+span {
			continue
		}
		sub := lrn - base
		prn := slot / span
		keyHigh := (slot % span) ^ sub
		d0 := addr.Pack(prn, keyHigh<<s.pShift, s.pShift+uint(level))
		for k := uint64(0); k < s.p; k++ {
			if imt.EntrySum(idx, d0+k, level) == want {
				return d0 + k, true
			}
		}
		return d0, false
	}
	return base * s.p, false // unreachable while rev is consistent
}

// lookup resolves the mapping entry covering initial region lrn0, going to
// the IMT (and paying a translation-line read) on a CMT miss. It reports
// whether the lookup hit the cache.
func (s *Scheme) lookup(lrn0 uint64) (cmt.Entry, bool) {
	if e, ok := s.cache.Lookup(lrn0); ok {
		return e, true
	}
	ent := s.table.Read(lrn0)
	span := uint64(1) << ent.Level
	e := cmt.Entry{Base: lrn0 &^ (span - 1), Level: ent.Level}
	e.Prn, e.Key = s.unpack(ent)
	s.cache.Insert(e)
	return e, false
}

// Translate implements wl.Leveler (no side effects).
func (s *Scheme) Translate(lma uint64) uint64 {
	return s.table.Translate(lma)
}

// Access implements wl.Leveler: the 7-step workflow of Fig 11 plus the
// write-triggered data exchange and the adaptation hooks.
func (s *Scheme) Access(op trace.Op, lma uint64) uint64 {
	lrn0 := lma >> s.pShift
	e, hit := s.lookup(lrn0)
	q := s.p << e.Level
	pma := e.Prn*q + ((lma & (q - 1)) ^ e.Key)

	if op == trace.Read {
		s.stats.DataReads++
		s.dev.Read(pma)
	} else {
		s.stats.DataWrites++
		s.dev.Write(pma)
		s.commit(e.Base, q, 1)
	}
	s.adapt(hit, lrn0)
	return pma
}

// commit adds n demand writes to the region based at base (q lines) and
// fires the data exchange when its counter reaches ψ*Q — the one trigger
// both Access and the folded repeatAccess path go through.
func (s *Scheme) commit(base, q, n uint64) {
	s.ctr[base] += uint32(n)
	if uint64(s.ctr[base]) < s.cfg.Period*q {
		return
	}
	s.ctr[base] = 0
	// Sec 3.2 item 3: a pending region-merge is performed together with the
	// wear-leveling trigger, so merge traffic is bounded by the swapping
	// period instead of the miss rate.
	if s.mode != ModeMerge || !s.tryMerge(base) {
		s.exchange(base)
	}
}

// adapt drives the observation window, the mode state machine, and the
// lazy merge/split application (Sec 3.2 item 3).
func (s *Scheme) adapt(hit bool, lrn0 uint64) {
	s.window.RecordRun(hit, 1)
	s.requests++
	if !s.cfg.Adaptive {
		if s.requests%s.cfg.CheckEvery == 0 {
			s.emitSample()
		}
		return
	}
	if s.requests%s.cfg.CheckEvery == 0 {
		s.check()
	}
	// Region merges apply lazily: on the miss that faulted the region in
	// (Sec 3.2 item 3 — merging only touches cached regions, and the
	// merged data is staged in the controller so demand requests are
	// served from the cached copy while the merge's writes drain in the
	// background) and piggybacked on the data-exchange trigger (see
	// Access). A region merges at most maxLevel times, so total merge
	// traffic is bounded. Splits are free (no data movement), so they
	// apply lazily on access.
	switch s.mode {
	case ModeMerge:
		if !hit {
			s.tryMerge(lrn0)
		}
	case ModeSplit:
		s.trySplit(lrn0)
	}
}

// check samples the runtime hit rate and updates the adaptation mode.
func (s *Scheme) check() {
	rate := s.window.Rate()
	st := s.cache.Stats()
	halves := st.FirstHits + st.SecondHits
	firstShare := 1.0
	if halves > 0 {
		firstShare = float64(st.FirstHits) / float64(halves)
	}
	imbalanced := firstShare >= s.cfg.SubQueueThreshold ||
		(1-firstShare) >= s.cfg.SubQueueThreshold
	s.cache.ResetHalfCounters()

	if rate < lowThreshold {
		s.lowRun += s.cfg.CheckEvery
	} else {
		s.lowRun = 0
	}
	if rate > highThreshold && imbalanced {
		s.highRun += s.cfg.CheckEvery
	} else {
		s.highRun = 0
	}
	switch {
	case s.lowRun >= s.cfg.SettlingWindow:
		s.mode = ModeMerge
	case s.highRun >= s.cfg.SettlingWindow:
		s.mode = ModeSplit
	default:
		s.mode = ModeSteady
	}
	s.emitSample()
}

// emitSample invokes the sampling hook.
func (s *Scheme) emitSample() {
	if s.cfg.OnSample == nil {
		return
	}
	s.cfg.OnSample(Sample{
		Requests:       s.requests,
		HitRate:        s.window.Rate(),
		AvgRegionLines: s.cache.AvgRegionUnits() * float64(s.p),
		Mode:           s.mode,
	})
}

// Lines implements wl.Leveler.
func (s *Scheme) Lines() uint64 { return s.cfg.Lines }

// Name implements wl.Leveler.
func (s *Scheme) Name() string {
	if s.cfg.Adaptive {
		return "SAWL"
	}
	return fmt.Sprintf("NWL-%d", s.p)
}

// Stats implements wl.Leveler, folding GTD traffic into the table counters.
func (s *Scheme) Stats() wl.Stats {
	st := s.stats
	g := s.dir.Stats()
	st.TableWrites = g.Writes
	st.SwapWrites += g.SwapWrites // GTD exchanges are demand-blocking table maintenance
	cs := s.cache.Stats()
	st.CMTHits = cs.Hits
	st.CMTMisses = cs.Misses
	fs := s.table.FaultStats()
	st.MetaFaults = fs.Corruptions
	st.MetaRebuilds = fs.Rebuilds
	return st
}

// InverseTranslate maps a physical data line back to the logical line
// currently stored there, using the inverse table. It is the exact inverse
// of Translate (tests and the fuzz harness rely on this).
func (s *Scheme) InverseTranslate(pma uint64) uint64 {
	slot := pma / s.p
	lrn0 := uint64(s.rev[slot])
	base, _, e := s.table.Region(lrn0)
	prn, key := s.unpack(e)
	off := (pma - prn*(s.p<<e.Level)) ^ key
	return base*s.p + off
}

// Merges returns the number of region-merge operations performed.
func (s *Scheme) Merges() uint64 { return s.merges }

// Splits returns the number of region-split operations performed.
func (s *Scheme) Splits() uint64 { return s.splits }

// CurrentMode returns the current adaptation mode.
func (s *Scheme) CurrentMode() Mode { return s.mode }

// OverheadBits implements wl.Leveler: CMT entries plus the GTD table. Each
// CMT entry carries the lrn tag, level, prn and key — bounded by
// 2*log2(M) + levelBits; we charge a hardware-realistic 64 bits.
func (s *Scheme) OverheadBits() uint64 {
	const entryBits = 64
	return uint64(s.cfg.CMTEntries)*entryBits + s.dir.OverheadBits()
}

// Table exposes the IMT (read-only use by tests and the verifier).
func (s *Scheme) Table() *imt.Table { return s.table }

// CheckConsistency validates the engine's internal invariants: IMT level
// encoding, rev-map agreement, and CMT coherence with the IMT. Tests call
// it after stress runs.
func (s *Scheme) CheckConsistency() error {
	// With metadata faults enabled, scrub first: corruption injected since
	// the last fetch of an entry is by design only detected on fetch, and
	// the audit below reads the raw arrays.
	s.table.Scrub()
	if err := s.table.VerifyLevels(); err != nil {
		return err
	}
	// rev must be the inverse of the region mapping at initial granularity.
	for i := uint64(0); i < s.nRegions; i++ {
		base, _, e := s.table.Region(i)
		if i != base {
			continue
		}
		prn, key := s.unpack(e)
		span := uint64(1) << e.Level
		for sub := uint64(0); sub < span; sub++ {
			slot := s.revSlot(prn*span, key, sub)
			if uint64(s.rev[slot]) != base+sub {
				return fmt.Errorf("core: rev[%d] = %d, want %d (region %d level %d)",
					slot, s.rev[slot], base+sub, base, e.Level)
			}
		}
	}
	// Every cached entry must match the IMT.
	for _, ce := range s.cache.Entries() {
		ent := s.table.Get(ce.Base)
		if ent.Level != ce.Level {
			return fmt.Errorf("core: CMT level %d != IMT level %d at base %d",
				ce.Level, ent.Level, ce.Base)
		}
		if prn, key := s.unpack(ent); ce.Prn != prn || ce.Key != key {
			return fmt.Errorf("core: CMT entry stale at base %d", ce.Base)
		}
	}
	return nil
}

// ForceMerge merges the region covering initial-region index lrn0 with its
// buddy regardless of the adaptation mode (test/ablation hook). It reports
// whether a merge happened.
func (s *Scheme) ForceMerge(lrn0 uint64) bool { return s.tryMerge(lrn0) }

// ForceSplit splits the region covering lrn0 regardless of the adaptation
// mode (test/ablation hook).
func (s *Scheme) ForceSplit(lrn0 uint64) { s.trySplit(lrn0) }

// ForceExchange triggers the data exchange for the region covering lrn0
// regardless of its write counter (test/ablation hook).
func (s *Scheme) ForceExchange(lrn0 uint64) { s.exchange(lrn0) }

// MergeAllOnce performs the naive stop-the-world alternative to lazy
// merging that Sec 3.2 item 3 argues against: it merges every region one
// level in a single burst, and returns the number of line writes the burst
// cost. The lazy scheme spreads the same work across accesses instead of
// stalling the system; TestAblationLazyMerge contrasts the two.
func (s *Scheme) MergeAllOnce() uint64 {
	st := s.stats
	before := st.MergeWrites + st.SwapWrites
	for base := uint64(0); base < s.nRegions; {
		_, span, e := s.table.Region(base)
		if e.Level < s.maxLevel {
			s.tryMerge(base)
			_, span, _ = s.table.Region(base)
		}
		base += span
	}
	st = s.stats
	return st.MergeWrites + st.SwapWrites - before
}
