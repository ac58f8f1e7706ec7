// Package gtd implements the Global Translation Directory (paper Sec 3.1).
//
// Tiered schemes store the Integrated Mapping Table in a reserved area of
// the NVM itself, packed into "translation lines". Those lines are written
// whenever mappings change, so they must be wear-leveled too — the GTD is
// the small SRAM-resident table that maps a logical translation-line
// address (tlma) to its physical counterpart (tpma), and this package also
// performs the hybrid wear leveling of the translation lines: regions of Kt
// translation lines exchange with a uniformly random region every Period
// writes per region.
//
// Translation lines carry no simulated payload (the IMT contents live in
// the controller model); the directory's job here is exact wear accounting
// of the reserved area and a faithful on-chip overhead figure
// (Sec 4.5: l/Kt * log2(l) bits).
package gtd

import (
	"fmt"

	"nvmwear/internal/nvm"
	"nvmwear/internal/rng"
)

// Config parameterizes a directory.
type Config struct {
	Base        uint64 // first physical device line of the reserved area
	Lines       uint64 // translation lines to manage (rounded up to Granularity)
	Granularity uint64 // Kt: translation lines per wear-leveling region
	Period      uint64 // writes to a region between exchanges
	Seed        uint64
}

// Directory is a GTD instance bound to a device.
type Directory struct {
	cfg     Config
	dev     *nvm.Device
	regions uint64
	table   []uint32
	counter []uint32
	src     *rng.Source

	writes     uint64
	swapWrites uint64
	remaps     uint64
}

// New creates a directory. The device must contain the physical range
// [Base, Base+PhysLines()).
func New(dev *nvm.Device, cfg Config) *Directory {
	if cfg.Lines == 0 {
		panic("gtd: zero translation lines")
	}
	if cfg.Granularity == 0 {
		panic("gtd: zero granularity")
	}
	if cfg.Period == 0 {
		panic("gtd: zero period")
	}
	regions := (cfg.Lines + cfg.Granularity - 1) / cfg.Granularity
	d := &Directory{
		cfg:     cfg,
		dev:     dev,
		regions: regions,
		table:   make([]uint32, regions),
		counter: make([]uint32, regions),
		src:     rng.New(cfg.Seed ^ 0x67d467d467d467d4),
	}
	if dev.Lines() < cfg.Base+regions*cfg.Granularity {
		panic("gtd: device lacks reserved space")
	}
	for i := range d.table {
		d.table[i] = uint32(i)
	}
	return d
}

// PhysLines returns the physical lines the directory occupies (Lines
// rounded up to whole regions).
func (c Config) PhysLines() uint64 {
	if c.Granularity == 0 {
		return c.Lines
	}
	r := (c.Lines + c.Granularity - 1) / c.Granularity
	return r * c.Granularity
}

// Translate maps a logical translation-line address to a physical device
// line.
func (d *Directory) Translate(tlma uint64) uint64 {
	r := tlma / d.cfg.Granularity
	return d.cfg.Base + uint64(d.table[r])*d.cfg.Granularity + tlma%d.cfg.Granularity
}

// Write records one write to a translation line, wearing the device and
// triggering the reserved-area wear leveling.
func (d *Directory) Write(tlma uint64) {
	d.writes++
	d.dev.Write(d.Translate(tlma))
	r := tlma / d.cfg.Granularity
	d.counter[r]++
	if uint64(d.counter[r]) >= d.cfg.Period {
		d.counter[r] = 0
		d.exchange(r)
	}
}

// Read records one read of a translation line.
func (d *Directory) Read(tlma uint64) {
	d.dev.Read(d.Translate(tlma))
}

// exchange swaps region r's physical frame with a random region's. The
// translation-line payloads move (2*Kt device writes) but carry no
// simulated data.
func (d *Directory) exchange(r uint64) {
	p := d.src.Uint64n(d.regions)
	if p == r {
		return
	}
	d.remaps++
	baseR := d.cfg.Base + uint64(d.table[r])*d.cfg.Granularity
	baseP := d.cfg.Base + uint64(d.table[p])*d.cfg.Granularity
	d.dev.WriteSpans(baseR, 0, baseP, 0, d.cfg.Granularity, nil, nil)
	d.swapWrites += 2 * d.cfg.Granularity
	d.table[r], d.table[p] = d.table[p], d.table[r]
}

// Stats summarizes directory activity.
type Stats struct {
	Writes     uint64
	SwapWrites uint64
	Remaps     uint64
}

// Stats returns cumulative counters.
func (d *Directory) Stats() Stats {
	return Stats{Writes: d.writes, SwapWrites: d.swapWrites, Remaps: d.remaps}
}

// OverheadBits returns the SRAM cost of the directory: one physical region
// pointer per region (Sec 4.5: l/Kt * log2(l)).
func (d *Directory) OverheadBits() uint64 {
	bits := uint64(1)
	for uint64(1)<<bits < d.regions {
		bits++
	}
	return d.regions * bits
}

// Snapshot returns a copy of the directory table — the battery-flushed
// controller metadata of the tiered engine's checkpoint (paper Sec 3.1).
func (d *Directory) Snapshot() []uint32 {
	out := make([]uint32, len(d.table))
	copy(out, d.table)
	return out
}

// Restore replaces the directory table from a snapshot, validating that it
// is a permutation of the region indices.
func (d *Directory) Restore(table []uint32) error {
	if uint64(len(table)) != d.regions {
		return fmt.Errorf("gtd: snapshot has %d regions, directory has %d", len(table), d.regions)
	}
	seen := make([]bool, d.regions)
	for _, p := range table {
		if uint64(p) >= d.regions || seen[p] {
			return fmt.Errorf("gtd: snapshot is not a permutation")
		}
		seen[p] = true
	}
	copy(d.table, table)
	return nil
}
