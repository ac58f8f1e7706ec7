// Package segswap implements Segment Swapping [Zhou+ ISCA'09], the paper's
// representative table-based wear-leveling (TBWL) scheme (Sec 2.1, Fig 1a).
//
// Memory is divided into segments. A table records, for every logical
// segment, its physical segment and the physical segment's accumulated
// write count. When a physical segment's writes since its last swap reach
// the swapping period, its data is exchanged with the least-written
// physical segment. The intra-segment offset never changes — the weakness
// Sec 2.2 points out: a Repeated Address Attack keeps hitting the same
// offset inside every segment it is bounced to, so the scheme fails under
// RAA (reproduced by this package's tests and `wlsim attack`).
package segswap

import (
	"nvmwear/internal/nvm"
	"nvmwear/internal/wl"
)

// Config parameterizes Segment Swapping.
type Config struct {
	Lines        uint64 // logical lines (multiple of SegmentLines)
	SegmentLines uint64 // lines per segment
	Period       uint64 // writes to a segment between swaps (swapping period)
}

// Scheme is a Segment Swapping instance.
type Scheme struct {
	wl.Driver
	cfg  Config
	dev  *nvm.Device
	segs uint64

	logToPhys []uint32 // logical segment -> physical segment
	physToLog []uint32 // inverse
	wearCount []uint64 // physical segment -> lifetime write count
	sinceSwap []uint64 // physical segment -> writes since last swap

	stats wl.Stats
}

// New creates the scheme over dev. dev must have at least cfg.Lines lines.
func New(dev *nvm.Device, cfg Config) *Scheme {
	if cfg.SegmentLines == 0 || cfg.Lines%cfg.SegmentLines != 0 {
		panic("segswap: Lines must be a nonzero multiple of SegmentLines")
	}
	if cfg.Period == 0 {
		panic("segswap: zero period")
	}
	if dev.Lines() < cfg.Lines {
		panic("segswap: device smaller than logical space")
	}
	segs := cfg.Lines / cfg.SegmentLines
	s := &Scheme{
		cfg:       cfg,
		dev:       dev,
		segs:      segs,
		logToPhys: make([]uint32, segs),
		physToLog: make([]uint32, segs),
		wearCount: make([]uint64, segs),
		sinceSwap: make([]uint64, segs),
	}
	for i := uint64(0); i < segs; i++ {
		s.logToPhys[i] = uint32(i)
		s.physToLog[i] = uint32(i)
	}
	s.Driver = wl.NewDriver(dev, s, &s.stats)
	return s
}

// Translate implements wl.Kernel.
func (s *Scheme) Translate(lma uint64) uint64 {
	seg := lma / s.cfg.SegmentLines
	off := lma % s.cfg.SegmentLines
	return uint64(s.logToPhys[seg])*s.cfg.SegmentLines + off
}

// Headroom implements wl.Kernel: the segment table only changes at a swap,
// so lma's mapping holds until its physical segment reaches the period.
func (s *Scheme) Headroom(lma uint64) uint64 {
	return s.cfg.Period - s.sinceSwap[s.logToPhys[lma/s.cfg.SegmentLines]]
}

// Commit implements wl.Kernel.
func (s *Scheme) Commit(lma, n uint64) {
	pseg := uint64(s.logToPhys[lma/s.cfg.SegmentLines])
	s.wearCount[pseg] += n
	s.sinceSwap[pseg] += n
	if s.sinceSwap[pseg] >= s.cfg.Period {
		s.swap(pseg)
	}
}

// swap exchanges the data of hot physical segment with the least-worn
// physical segment (linear scan; the table-based scheme pays this cost in
// hardware too, via sorted structures we do not need to model).
func (s *Scheme) swap(hot uint64) {
	s.sinceSwap[hot] = 0
	coldest := uint64(0)
	for i := uint64(1); i < s.segs; i++ {
		if s.wearCount[i] < s.wearCount[coldest] {
			coldest = i
		}
	}
	if coldest == hot {
		return
	}
	s.stats.Remaps++
	n := s.cfg.SegmentLines
	hotBase, coldBase := hot*n, coldest*n
	// Exchange via an SRAM buffer: hot's lines are staged, cold's lines move
	// into hot's frame, then the staged lines land in cold's frame. Each
	// line lands with one device write; 2n swap writes total.
	buf := make([]uint64, n)
	for i := uint64(0); i < n; i++ {
		buf[i] = s.dev.ReadData(hotBase + i)
	}
	for i := uint64(0); i < n; i++ {
		s.dev.MoveData(hotBase+i, coldBase+i)
		s.stats.SwapWrites++
	}
	for i := uint64(0); i < n; i++ {
		s.dev.WriteData(coldBase+i, buf[i])
		s.stats.SwapWrites++
	}
	s.wearCount[hot] += n
	s.wearCount[coldest] += n
	lHot, lCold := s.physToLog[hot], s.physToLog[coldest]
	s.logToPhys[lHot], s.logToPhys[lCold] = uint32(coldest), uint32(hot)
	s.physToLog[hot], s.physToLog[coldest] = lCold, lHot
	s.sinceSwap[coldest] = 0
}

// Lines implements wl.Leveler.
func (s *Scheme) Lines() uint64 { return s.cfg.Lines }

// Name implements wl.Leveler.
func (s *Scheme) Name() string { return "SegmentSwap" }

// Stats implements wl.Leveler.
func (s *Scheme) Stats() wl.Stats { return s.stats }

// OverheadBits implements wl.Leveler: the full mapping table plus two
// counters per segment live on chip.
func (s *Scheme) OverheadBits() uint64 {
	segBits := uint64(1)
	for 1<<segBits < s.segs {
		segBits++
	}
	const counterBits = 32
	return s.segs * (segBits + 2*counterBits)
}
