// Package imt implements the Integrated Mapping Table (paper Sec 3.1-3.2,
// Fig 6 and Fig 10).
//
// The IMT holds one entry per initial-granularity region: the packed
// address information D = prn*Q + key, where Q is the region's *current*
// wear-leveling granularity in lines. The table's size is fixed by the
// initial granularity P (number of entries = M/P); region merges and splits
// never change the table size — a merged super-region of n*P lines simply
// stores identical address information in all n of its sub-entries, and the
// real granularity is recoverable from how many adjacent entries agree
// (Sec 3.2 item 3). This package additionally tracks each entry's level
// explicitly for O(1) access; VerifyLevels cross-checks the explicit levels
// against the adjacency encoding, and tests rely on it.
//
// Entries are packed K = 6 per translation line, the paper's design.
// The table lives in a reserved area of the NVM device, so every entry
// update wears a translation line; reads and writes are routed through the
// GTD, which wear-levels the reserved area itself.
package imt

import (
	"fmt"

	"nvmwear/internal/addr"
	"nvmwear/internal/fault"
	"nvmwear/internal/gtd"
)

// entriesPerLine is K, the IMT entries packed into one translation line. A
// constant, so that finding an entry's line is a multiply, not a divide.
const entriesPerLine = 6

// Entry is one region mapping at its current granularity.
type Entry struct {
	D     uint64 // packed prn*Q + key (Q = P << Level lines)
	Level uint8
}

// Table is an IMT instance.
type Table struct {
	dir       *gtd.Directory
	initGran  uint64 // P
	dataLines uint64 // M

	entries []uint64
	levels  []uint8
	fs      *faultState // nil when metadata faults are disabled
}

// faultState carries the metadata-fault machinery: the injector, the
// per-entry checksums that detect corruption, and the rebuild callback the
// engine registers (it owns the inverse table the rebuild reads).
type faultState struct {
	inj     *fault.Injector
	sums    []uint16
	rebuild RebuildFunc

	corruptions uint64 // checksum mismatches detected on fetch
	rebuilds    uint64 // entries rebuilt from the inverse table
	mismatches  uint64 // rebuilds whose candidates never matched the checksum
}

// RebuildFunc recovers entry idx (at the given level) after its stored word
// failed its checksum. want is the stored checksum the candidate must
// reproduce. ok is false when no candidate matched — the returned d is then
// the caller's best reconstruction (still a valid mapping) and the event is
// counted as a mismatch.
type RebuildFunc func(idx uint64, level uint8, want uint16) (d uint64, ok bool)

// EntrySum is the per-entry checksum stored alongside each mapping word —
// the model of the controller's metadata ECC. It covers the entry index, the
// packed address word, and the level, so a flipped bit in any of them (or an
// entry written to the wrong slot) is detected on fetch.
func EntrySum(idx, d uint64, level uint8) uint16 {
	x := idx*0x9e3779b97f4a7c15 ^ d*0xbf58476d1ce4e5b9 ^ (uint64(level)+1)*0x94d049bb133111eb
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return uint16(x)
}

// EnableFaults arms metadata-fault injection: every translation-line write
// may corrupt one entry stored on that line (a random bit of its packed
// word flips), and every entry fetch verifies the per-entry checksum,
// invoking rebuild on a mismatch and rewriting the repaired line through
// the GTD. inj must be non-nil and rebuild non-nil.
func (t *Table) EnableFaults(inj *fault.Injector, rebuild RebuildFunc) {
	if inj == nil || rebuild == nil {
		panic("imt: EnableFaults needs an injector and a rebuild callback")
	}
	fs := &faultState{inj: inj, rebuild: rebuild, sums: make([]uint16, len(t.entries))}
	for i := range t.entries {
		fs.sums[i] = EntrySum(uint64(i), t.entries[i], t.levels[i])
	}
	t.fs = fs
}

// FaultStats counts the metadata-fault events a table has seen.
type FaultStats struct {
	Corruptions uint64 // checksum mismatches detected
	Rebuilds    uint64 // entries rebuilt from the inverse table
	Mismatches  uint64 // rebuilds that fell back to a best-effort candidate
}

// FaultStats returns cumulative metadata-fault counters.
func (t *Table) FaultStats() FaultStats {
	if t.fs == nil {
		return FaultStats{}
	}
	return FaultStats{
		Corruptions: t.fs.corruptions,
		Rebuilds:    t.fs.rebuilds,
		Mismatches:  t.fs.mismatches,
	}
}

// verify checks entry idx against its checksum and rebuilds it on a
// mismatch. The repaired entry is written back to its translation line
// through the GTD (one table write), modeling the controller persisting the
// reconstruction.
func (t *Table) verify(idx uint64) {
	fs := t.fs
	if EntrySum(idx, t.entries[idx], t.levels[idx]) == fs.sums[idx] {
		return
	}
	fs.corruptions++
	d, ok := fs.rebuild(idx, t.levels[idx], fs.sums[idx])
	if !ok {
		fs.mismatches++
	}
	t.entries[idx] = d
	fs.sums[idx] = EntrySum(idx, d, t.levels[idx])
	fs.rebuilds++
	t.dir.Write(t.lineOf(idx)) // persist the repaired line
}

// corruptLine flips one random bit of one random entry stored on
// translation line l — the injected fault a later fetch must detect.
func (t *Table) corruptLine(l uint64) {
	lo := l * entriesPerLine
	hi := lo + entriesPerLine
	if n := uint64(len(t.entries)); hi > n {
		hi = n
	}
	victim := lo + uint64(t.fs.inj.Intn(int(hi-lo)))
	bit := t.fs.inj.Intn(64)
	t.entries[victim] ^= uint64(1) << bit
}

// New creates the table with the identity mapping at level 0. dir handles
// translation-line wear.
func New(dir *gtd.Directory, dataLines, initGran uint64) *Table {
	if !addr.IsPow2(dataLines) || !addr.IsPow2(initGran) {
		panic("imt: dataLines and initGran must be powers of two")
	}
	if initGran > dataLines {
		panic("imt: granularity exceeds memory")
	}
	n := dataLines / initGran
	t := &Table{
		dir:       dir,
		initGran:  initGran,
		dataLines: dataLines,
		entries:   make([]uint64, n),
		levels:    make([]uint8, n),
	}
	for i := uint64(0); i < n; i++ {
		t.entries[i] = addr.Pack(i, 0, addr.Log2(initGran))
	}
	return t
}

// TranslationLines returns the number of translation lines the table packs
// into — the size the GTD must manage.
func TranslationLines(dataLines, initGran uint64) uint64 {
	n := dataLines / initGran
	return (n + entriesPerLine - 1) / entriesPerLine
}

// NumEntries returns the number of (initial-granularity) entries.
func (t *Table) NumEntries() uint64 { return uint64(len(t.entries)) }

// lineOf returns the translation line holding entry idx.
func (t *Table) lineOf(idx uint64) uint64 { return idx / entriesPerLine }

// Get returns entry idx without touching the device (used when the entry
// is already cached on chip). With metadata faults enabled every fetch
// verifies the entry's checksum first — corrupted words are rebuilt before
// they can propagate into a translation or an exchange.
func (t *Table) Get(idx uint64) Entry {
	if t.fs != nil {
		t.verify(idx)
	}
	return Entry{D: t.entries[idx], Level: t.levels[idx]}
}

// Read returns entry idx, accounting one translation-line read through the
// GTD — the CMT-miss path of Fig 11 step 3.
func (t *Table) Read(idx uint64) Entry {
	t.dir.Read(t.lineOf(idx))
	return t.Get(idx)
}

// SetRange updates entries [base, base+span) to the same address info —
// one region at granularity span*P. It writes each affected translation
// line once through the GTD.
func (t *Table) SetRange(base, span uint64, d uint64, level uint8) {
	if base&(span-1) != 0 || span != uint64(1)<<level {
		panic(fmt.Sprintf("imt: SetRange base %d span %d level %d misaligned", base, span, level))
	}
	for i := base; i < base+span; i++ {
		t.entries[i] = d
		t.levels[i] = level
		if t.fs != nil {
			t.fs.sums[i] = EntrySum(i, d, level)
		}
	}
	first, last := t.lineOf(base), t.lineOf(base+span-1)
	for l := first; l <= last; l++ {
		t.dir.Write(l)
		if t.fs != nil && t.fs.inj.CorruptMetadata() {
			t.corruptLine(l)
		}
	}
}

// Region returns the super-region descriptor covering entry idx: its
// aligned base, span (in entries) and mapping.
func (t *Table) Region(idx uint64) (base, span uint64, e Entry) {
	e = t.Get(idx)
	span = uint64(1) << e.Level
	base = idx &^ (span - 1)
	return base, span, e
}

// Translate maps a logical line address through the table (no device
// accounting; callers account CMT/IMT traffic). With metadata faults
// enabled the entry is checksum-verified (and repaired if needed) before
// use, like any other fetch.
func (t *Table) Translate(lma uint64) uint64 {
	idx := lma / t.initGran
	if t.fs != nil {
		t.verify(idx)
	}
	return addr.Translate(lma, t.entries[idx], addr.Log2(t.initGran)+uint(t.levels[idx]))
}

// VerifyLevels cross-checks the explicit level array against the paper's
// adjacency encoding: a level-l region must consist of 2^l aligned entries
// holding identical D, and its neighbors at the same alignment must differ.
// Returns the first inconsistency found, or nil.
func (t *Table) VerifyLevels() error {
	n := uint64(len(t.entries))
	for i := uint64(0); i < n; {
		lvl := t.levels[i]
		if uint64(lvl) >= 64 || uint64(1)<<lvl > n {
			return fmt.Errorf("imt: entry %d level %d exceeds table", i, lvl)
		}
		span := uint64(1) << lvl
		if i%span != 0 {
			return fmt.Errorf("imt: entry %d level %d misaligned", i, lvl)
		}
		d := t.entries[i]
		for j := i; j < i+span; j++ {
			if j >= n {
				return fmt.Errorf("imt: region at %d overruns table", i)
			}
			if t.entries[j] != d {
				return fmt.Errorf("imt: entry %d disagrees with region base %d", j, i)
			}
			if t.levels[j] != lvl {
				return fmt.Errorf("imt: entry %d level %d != region level %d", j, t.levels[j], lvl)
			}
		}
		// The buddy range must hold different info (otherwise the regions
		// would be indistinguishable from a merged region).
		buddy := i ^ span
		if buddy < n && t.levels[buddy] == lvl && t.entries[buddy] == d {
			return fmt.Errorf("imt: region %d and buddy %d identical but not merged", i, buddy)
		}
		i += span
	}
	return nil
}

// NVMBits returns the reserved-space cost of the table in bits: one
// log2(M)-bit entry per initial region (Sec 4.5).
func (t *Table) NVMBits() uint64 {
	return t.NumEntries() * uint64(addr.Log2(t.dataLines))
}

// Load replaces the table contents wholesale (crash recovery: the entries
// represent NVM-resident translation lines that survived power loss). The
// level encoding is verified before the table is accepted; no device
// writes are charged (the data is already on the device).
func (t *Table) Load(entries []uint64, levels []uint8) error {
	if uint64(len(entries)) != t.NumEntries() || uint64(len(levels)) != t.NumEntries() {
		return fmt.Errorf("imt: load size mismatch")
	}
	old := t.entries
	oldLv := t.levels
	t.entries = append([]uint64(nil), entries...)
	t.levels = append([]uint8(nil), levels...)
	if err := t.VerifyLevels(); err != nil {
		t.entries, t.levels = old, oldLv
		return err
	}
	if t.fs != nil {
		for i := range t.entries {
			t.fs.sums[i] = EntrySum(uint64(i), t.entries[i], t.levels[i])
		}
	}
	return nil
}

// CorruptEntryForTest flips one bit of entry idx without updating its
// checksum — the test hook for exercising the detection/rebuild path
// deterministically.
func (t *Table) CorruptEntryForTest(idx uint64) {
	t.entries[idx] ^= 1 << 7
}

// Scrub verifies every entry against its checksum, rebuilding any corrupted
// ones — the background-scrubber pass a controller runs before consistency
// audits. No-op when metadata faults are disabled.
func (t *Table) Scrub() {
	if t.fs == nil {
		return
	}
	for i := range t.entries {
		t.verify(uint64(i))
	}
}
