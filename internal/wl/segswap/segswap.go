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
	"errors"
	"fmt"

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

	logToPhys []uint32            // logical segment -> physical segment
	physToLog []uint32            // inverse
	wear      *wl.Coldest[uint64] // physical segment -> lifetime write count
	sinceSwap []uint64            // physical segment -> writes since last swap
	buf       []uint64            // swap staging buffer, one segment

	stats wl.Stats
}

// Validate reports the first rule of the scheme's geometry that the
// configuration breaks, naming the field, or nil. New panics with the same
// error.
func (c Config) Validate() error {
	switch {
	case c.SegmentLines == 0 || c.Lines%c.SegmentLines != 0:
		return fmt.Errorf("segswap: Lines %d is not a nonzero multiple of SegmentLines %d", c.Lines, c.SegmentLines)
	case c.Period == 0:
		return errors.New("segswap: Period is zero")
	}
	return nil
}

// New creates the scheme over dev. dev must have at least cfg.Lines lines.
func New(dev *nvm.Device, cfg Config) *Scheme {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
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
		wear:      wl.NewColdest[uint64](int(segs)),
		sinceSwap: make([]uint64, segs),
		buf:       make([]uint64, cfg.SegmentLines),
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
	s.wear.Add(int(pseg), n)
	s.sinceSwap[pseg] += n
	if s.sinceSwap[pseg] >= s.cfg.Period {
		s.swap(pseg)
	}
}

// swap exchanges the data of hot physical segment with the least-worn
// physical segment, the lowest-numbered on ties. The scheme's table finds
// it in hardware; the simulator asks its coldest index, which models no
// cost of its own.
func (s *Scheme) swap(hot uint64) {
	s.sinceSwap[hot] = 0
	coldest := uint64(s.wear.Min())
	if coldest == hot {
		return
	}
	s.stats.Remaps++
	n := s.cfg.SegmentLines
	hotBase, coldBase := hot*n, coldest*n
	// Exchange via an SRAM buffer: hot's lines are staged, cold's lines move
	// into hot's frame, then the staged lines land in cold's frame. Each
	// line lands with one device write; 2n swap writes total.
	s.dev.ReadSpan(hotBase, 0, n, s.buf)
	s.dev.MoveSpan(hotBase, coldBase, n)
	s.dev.WriteSpan(coldBase, 0, n, s.buf)
	s.stats.SwapWrites += 2 * n
	s.wear.Add(int(hot), n)
	s.wear.Add(int(coldest), n)
	lHot, lCold := s.physToLog[hot], s.physToLog[coldest]
	s.logToPhys[lHot], s.logToPhys[lCold] = uint32(coldest), uint32(hot)
	s.physToLog[hot], s.physToLog[coldest] = lCold, lHot
	s.sinceSwap[coldest] = 0
}

// Lines implements wl.Leveler.
func (s *Scheme) Lines() uint64 { return s.cfg.Lines }

// Name implements wl.Leveler.
func (s *Scheme) Name() string { return "SegmentSwap" }

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
