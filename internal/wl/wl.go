// Package wl defines the interface every wear-leveling scheme in this
// repository implements, the shared accounting they report, the access
// driver that serves requests for a scheme's trigger rule (Driver over a
// Kernel), and the trivial identity scheme (the paper's "Baseline" without
// any wear leveling).
//
// A wear-leveling scheme is a time-varying bijection from logical line
// addresses (what the application sees) to physical line addresses (where
// data lives on the NVM device), plus a trigger rule that re-randomizes
// parts of the mapping after a configurable number of writes (the "swapping
// period" of Sec 2.1). Schemes own the device: every access — the user's
// demand access and the scheme's own data-exchange writes — is applied to
// the device by the scheme, so the device's per-line wear counters account
// for write amplification exactly.
package wl

import (
	"fmt"
	"math"

	"nvmwear/internal/nvm"
	"nvmwear/internal/trace"
)

// Leveler is a wear-leveling scheme bound to a device.
type Leveler interface {
	// Access serves one demand request: it translates the logical address,
	// applies the access to the device, performs any wear-leveling work the
	// access triggers, and returns the physical address the demand access
	// landed on.
	Access(op trace.Op, lma uint64) (pma uint64)

	// AccessBatch serves ops[i]/addrs[i] in order and returns how many
	// requests were processed: len(ops) normally, fewer when the device
	// died mid-batch (the killing access still completes its bookkeeping,
	// and counts). The contract is absolute: AccessBatch must be observably
	// identical to calling Access once per request with a device-liveness
	// check between requests. Folding repeated accesses may change how
	// state is stepped, never the modeled outcome: every counter, RNG draw
	// and death ordering matches the per-request sequence bit for bit.
	AccessBatch(ops []trace.Op, addrs []uint64) int

	// Translate returns the current mapping of lma without side effects.
	Translate(lma uint64) (pma uint64)

	// Lines returns the size of the logical address space.
	Lines() uint64

	// Name identifies the scheme (used in experiment output).
	Name() string

	// Stats returns accounting counters.
	Stats() Stats

	// OverheadBits returns the scheme's on-chip (SRAM) storage requirement
	// in bits — the quantity Sec 4.5 and Fig 5 reason about.
	OverheadBits() uint64
}

// Kernel is the per-scheme half of the access path: the trigger rule every
// scheme in the catalogue follows — count demand writes, remap when the
// count reaches the swapping period (Sec 2.1). Driver supplies the rest.
type Kernel interface {
	// Translate returns the current mapping of lma without side effects.
	Translate(lma uint64) uint64

	// Headroom returns how many demand writes to lma can land, from the
	// current state, before lma's mapping may change: the writes up to and
	// including the one whose Commit fires the next trigger. It is >= 1.
	Headroom(lma uint64) uint64

	// Commit advances the scheme's counters by n demand writes to lma
	// (1 <= n <= Headroom(lma)), all landed on Translate(lma), and fires
	// the trigger when the n-th write reaches it.
	Commit(lma, n uint64)
}

// Driver derives Access, AccessBatch and Stats from a Kernel. Schemes embed
// it, so the liveness check, run detection, read folding, headroom
// clamping, the killing-write rule and the demand counters are written once
// for the whole catalogue.
type Driver struct {
	dev   *nvm.Device
	k     Kernel
	stats *Stats
}

// NewDriver binds a scheme's kernel to its device; the driver charges
// demand reads and writes to *stats.
func NewDriver(dev *nvm.Device, k Kernel, stats *Stats) Driver {
	return Driver{dev: dev, k: k, stats: stats}
}

// Access implements Leveler: a run of one, through the device's
// single-access primitives.
func (d *Driver) Access(op trace.Op, lma uint64) uint64 {
	pma := d.k.Translate(lma)
	if op == trace.Read {
		d.stats.DataReads++
		d.dev.Read(pma)
		return pma
	}
	d.stats.DataWrites++
	d.dev.Write(pma)
	d.k.Commit(lma, 1)
	return pma
}

// AccessBatch implements Leveler. Each maximal run of identical (op, lma)
// is found once. Reads never move a mapping, so a read run is one ReadRun.
// A write run goes in chunks clamped at the kernel's headroom,
// re-translated after every Commit; the write that kills the device still
// commits, as it would have per request.
func (d *Driver) AccessBatch(ops []trace.Op, addrs []uint64) int {
	n := len(ops)
	for i := 0; i < n; {
		if !d.dev.Alive() {
			return i
		}
		op, lma := ops[i], addrs[i]
		j := i + 1
		for j < n && ops[j] == op && addrs[j] == lma {
			j++
		}
		if op == trace.Read {
			issued := d.dev.ReadRun(d.k.Translate(lma), uint64(j-i))
			d.stats.DataReads += issued
			i += int(issued)
			continue
		}
		for i < j && d.dev.Alive() {
			chunk := uint64(j - i)
			if chunk > 1 { // every write has headroom for itself
				chunk = min(chunk, d.k.Headroom(lma))
			}
			if served := d.dev.WriteRun(d.k.Translate(lma), chunk); served < chunk {
				chunk = served + 1
			}
			d.stats.DataWrites += chunk
			d.k.Commit(lma, chunk)
			i += int(chunk)
		}
	}
	return n
}

// Stats implements Leveler: the demand counters the driver charges plus
// whatever the kernel adds to the same struct.
func (d *Driver) Stats() Stats { return *d.stats }

// Stats is the shared accounting every scheme reports.
type Stats struct {
	DataWrites  uint64 // demand writes served
	DataReads   uint64 // demand reads served
	SwapWrites  uint64 // device writes caused by data exchanges
	MergeWrites uint64 // device writes caused by region merges (SAWL; background traffic)
	TableWrites uint64 // device writes to NVM-resident mapping tables (tiered schemes)
	Remaps      uint64 // mapping-change events (gap moves, refreshes, region swaps)
	CMTHits     uint64 // tiered schemes: on-chip mapping-cache hits
	CMTMisses   uint64 // tiered schemes: mapping-cache misses (NVM table lookup)

	MetaFaults   uint64 // mapping-table corruptions detected by checksum (fault injection)
	MetaRebuilds uint64 // table entries rebuilt from the inverse table
}

// Add accumulates o into s. Used to merge per-shard accounting into the
// global view; every field is a sum, so merging is exact.
func (s *Stats) Add(o Stats) {
	s.DataWrites += o.DataWrites
	s.DataReads += o.DataReads
	s.SwapWrites += o.SwapWrites
	s.MergeWrites += o.MergeWrites
	s.TableWrites += o.TableWrites
	s.Remaps += o.Remaps
	s.CMTHits += o.CMTHits
	s.CMTMisses += o.CMTMisses
	s.MetaFaults += o.MetaFaults
	s.MetaRebuilds += o.MetaRebuilds
}

// WriteOverhead returns extra writes as a fraction of demand writes — the
// percentage the paper annotates next to each swapping period in Fig 3/4.
func (s Stats) WriteOverhead() float64 {
	if s.DataWrites == 0 {
		return 0
	}
	return float64(s.SwapWrites+s.MergeWrites+s.TableWrites) / float64(s.DataWrites)
}

// HitRate returns the mapping-cache hit rate for tiered schemes (1 if the
// scheme has no cache).
func (s Stats) HitRate() float64 {
	total := s.CMTHits + s.CMTMisses
	if total == 0 {
		return 1
	}
	return float64(s.CMTHits) / float64(total)
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("stats{w=%d r=%d swap=%d merge=%d table=%d remaps=%d overhead=%.2f%% hit=%.1f%%}",
		s.DataWrites, s.DataReads, s.SwapWrites, s.MergeWrites, s.TableWrites, s.Remaps,
		100*s.WriteOverhead(), 100*s.HitRate())
}

// Identity is the no-wear-leveling baseline: logical address = physical
// address. Its lifetime under any non-uniform workload is the paper's
// "Baseline" bar in Fig 16.
type Identity struct {
	Driver
	lines uint64
	stats Stats
}

// NewIdentity creates the baseline over the device's full line space.
func NewIdentity(dev *nvm.Device) *Identity {
	l := &Identity{lines: dev.Lines()}
	l.Driver = NewDriver(dev, l, &l.stats)
	return l
}

// Translate implements Kernel.
func (l *Identity) Translate(lma uint64) uint64 { return lma }

// Headroom implements Kernel: with no mapping to maintain, a whole run
// folds into one device run.
func (l *Identity) Headroom(uint64) uint64 { return math.MaxUint64 }

// Commit implements Kernel: the baseline has no trigger.
func (l *Identity) Commit(uint64, uint64) {}

// Lines implements Leveler.
func (l *Identity) Lines() uint64 { return l.lines }

// Name implements Leveler.
func (l *Identity) Name() string { return "Baseline" }

// OverheadBits implements Leveler.
func (l *Identity) OverheadBits() uint64 { return 0 }
