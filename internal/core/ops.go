package core

import (
	"nvmwear/internal/addr"
	"nvmwear/internal/cmt"
	"nvmwear/internal/imt"
)

// This file implements the three structural operations of the tiered
// engine:
//
//   - exchange: the periodic PCM-S-style data exchange at a region's
//     current granularity (the data exchange module of Fig 6);
//   - merge: the region-merge operation of Sec 3.2 / Fig 8;
//   - split: the region-split operation of Sec 3.2 / Fig 9 (free — no data
//     movement, thanks to the XOR intra-region mapping).
//
// Throughout, physical positions are measured in "slots" — units of the
// initial granularity P — so a region at level l occupies 1<<l contiguous,
// aligned slots. rev[slot] gives the logical initial region stored there.

// regionOf returns the descriptor of the super-region covering initial
// region index idx: its logical base, span in slots, physical base slot,
// line-level key, and level.
func (s *Scheme) regionOf(idx uint64) (base, span, physSlot, key uint64, level uint8) {
	base, span, e := s.table.Region(idx)
	prn, key := s.unpack(e)
	return base, span, prn * span, key, e.Level
}

// unpack decodes an IMT entry's word D = prn·Q + key, where Q = P << Level.
func (s *Scheme) unpack(e imt.Entry) (prn, key uint64) {
	return addr.Unpack(e.D, s.pShift+uint(e.Level))
}

// revSlot is the physical slot holding sub-region sub of a region whose
// physical block starts at slot physSlot: the key's bits above P permute
// the region's slots, as they permute its lines.
func (s *Scheme) revSlot(physSlot, key, sub uint64) uint64 {
	return physSlot + (sub ^ key>>s.pShift)
}

// setRegion commits a region's mapping to the IMT, refreshes the CMT if the
// entry is cached, and rebuilds rev for the region's slots.
func (s *Scheme) setRegion(base, span, physSlot, key uint64, level uint8) {
	prn := physSlot >> level // span = 1 << level
	s.table.SetRange(base, span, addr.Pack(prn, key, s.pShift+uint(level)), level)
	s.cache.Update(level, base, prn, key)
	for sub := uint64(0); sub < span; sub++ {
		s.rev[s.revSlot(physSlot, key, sub)] = uint32(base + sub)
	}
}

// exchange relocates the region based at `base` to a uniformly random
// physical block of the same size, displacing that block's occupants into
// the region's old frame (offset-preserving), and re-keys the region. Cost:
// 2Q line writes (Q if the random target is the region's own frame).
func (s *Scheme) exchange(base uint64) {
	s.stats.Remaps++
	base, span, physSlot, key, level := s.regionOf(base)
	q := s.p << level

	target := s.src.Uint64n(s.nRegions/span) * span
	newKey := s.src.Uint64n(q)

	if target == physSlot {
		if newKey == key {
			return
		}
		// Re-key in place: stage the region, rewrite per the new key.
		s.dev.ReadSpan(physSlot*s.p, key, q, s.bufA)
		s.dev.WriteSpan(physSlot*s.p, newKey, q, s.bufA)
		s.stats.SwapWrites += q
		s.setRegion(base, span, physSlot, newKey, level)
		return
	}

	// Shrink any occupant of the target block larger than our region; a
	// split is free, so this never moves data.
	s.shrinkOccupants(target, span)

	// Stage our region's lines in logical order.
	s.dev.ReadSpan(physSlot*s.p, key, q, s.bufA)
	// Move the target block's lines into our old frame, offset-preserving,
	// so each occupant keeps its key and only changes its prn.
	s.dev.MoveSpan(physSlot*s.p, target*s.p, q)
	s.relocateOccupants(target, physSlot, span)
	// Land our region in the target block under the new key.
	s.dev.WriteSpan(target*s.p, newKey, q, s.bufA)
	s.stats.SwapWrites += 2 * q
	s.setRegion(base, span, target, newKey, level)
}

// shrinkOccupants splits every region occupying the block [blockSlot,
// blockSlot+span) until none is larger than span slots.
func (s *Scheme) shrinkOccupants(blockSlot, span uint64) {
	for t := uint64(0); t < span; {
		obase, ospan, _, _, _ := s.regionOf(uint64(s.rev[blockSlot+t]))
		if ospan > span {
			s.splitRegion(obase)
			continue // re-inspect: the occupant halved
		}
		t += ospan
	}
}

// relocateOccupants rewrites the mapping of every region that occupied the
// block at `from` (span slots) to the same offsets within the block at
// `to`. Their data has already been moved offset-preserving.
func (s *Scheme) relocateOccupants(from, to, span uint64) {
	// Snapshot rev of the source block first: setRegion rewrites rev as it
	// goes and `to` may be scanned later in the same pass. The snapshot
	// lives in a reusable buffer — exchanges are frequent enough that a
	// per-call allocation shows up in profiles.
	occ := s.revBuf[:span]
	copy(occ, s.rev[from:from+span])
	for t := uint64(0); t < span; {
		obase, ospan, _, okey, olevel := s.regionOf(uint64(occ[t]))
		s.setRegion(obase, ospan, to+t, okey, olevel)
		t += ospan
	}
}

// tryMerge merges the region covering lrn0 with its logical buddy
// (Sec 3.2 item 1, Fig 8). If the buddy is currently at a finer
// granularity, its pieces are first merged up to the same level — the
// paper's "chooses the closest non-merged logical location" rule. The
// accessed region's data stays in place; the buddy's data (and any
// occupant of the destination half) moves — 2Q line writes at most.
// It reports whether a merge happened.
func (s *Scheme) tryMerge(lrn0 uint64) bool {
	aBase, span, _, _, level := s.regionOf(lrn0)
	if level >= s.maxLevel {
		return false
	}
	bBase := aBase ^ span
	if bBase >= s.nRegions {
		return false
	}
	for {
		bEnt := s.table.Get(bBase)
		if bEnt.Level == level {
			break
		}
		if bEnt.Level > level {
			// Impossible: a coarser region at the buddy would cover aBase.
			return false
		}
		if !s.tryMerge(bBase) {
			return false
		}
	}
	// Normalizing the buddy may have displaced a's physical block
	// (relocateOccupants); re-derive the mapping.
	var aSlot, aKey uint64
	aBase, span, aSlot, aKey, level = s.regionOf(aBase)
	q := s.p << level
	bPrn, bKey := s.unpack(s.table.Get(bBase))
	bSlot := bPrn * span

	other := aSlot ^ span // the other half of a's aligned physical pair

	if bSlot == other {
		// Buddy already adjacent; realign its lines to a's key if needed.
		if bKey != aKey {
			s.dev.ReadSpan(other*s.p, bKey, q, s.bufB)
			s.dev.WriteSpan(other*s.p, aKey, q, s.bufB)
			s.stats.MergeWrites += q
		}
	} else {
		// Stage the buddy, displace the other half's occupants into the
		// buddy's old frame, then land the buddy in the other half.
		s.dev.ReadSpan(bSlot*s.p, bKey, q, s.bufB)
		s.shrinkOccupants(other, span)
		s.dev.MoveSpan(bSlot*s.p, other*s.p, q)
		s.relocateOccupants(other, bSlot, span)
		s.dev.WriteSpan(other*s.p, aKey, q, s.bufB)
		s.stats.MergeWrites += 2 * q
	}

	// Commit the merged super-region. Choosing the super key as
	//   k2 = ((aLogicalHalf ^ aPhysicalHalf) << log2(Q)) | aKey
	// keeps a's lines exactly where they are and places the buddy's lines
	// in the other physical half at offsets lao ^ aKey (where they were
	// just written).
	superBase := aBase &^ (2*span - 1)
	aLH := (aBase / span) & 1
	aPH := (aSlot / span) & 1
	k2 := ((aLH ^ aPH) * q) | aKey
	superSlot := aSlot &^ (2*span - 1)

	s.cache.Remove(level, aBase)
	s.cache.Remove(level, bBase)
	s.setRegion(superBase, 2*span, superSlot, k2, level+1)
	s.cache.Insert(cmt.Entry{
		Base: superBase, Level: level + 1,
		Prn: superSlot / (2 * span), Key: k2,
	})

	// Fold the write counters.
	sum := s.ctr[aBase] + s.ctr[bBase]
	s.ctr[aBase], s.ctr[bBase] = 0, 0
	s.ctr[superBase] = sum
	s.merges++
	return true
}

// trySplit splits the region covering lrn0 into two halves if it is above
// the initial granularity.
func (s *Scheme) trySplit(lrn0 uint64) {
	base, _, _, _, level := s.regionOf(lrn0)
	if level == 0 {
		return
	}
	s.splitRegion(base)
}

// splitRegion performs the free region-split of Fig 9: the XOR mapping
// already keeps each half physically contiguous, so only the tables change.
// The new physical sub-block of each half is selected by the MSB of the old
// key; the new keys are the old key's low bits.
func (s *Scheme) splitRegion(base uint64) {
	base, span, physSlot, key, level := s.regionOf(base)
	if level == 0 {
		return
	}
	q := s.p << level
	half := q / 2
	spanH := span / 2
	kMSB := key / half // 0 or 1
	keyLow := key & (half - 1)

	lowSlot := physSlot + kMSB*spanH
	highSlot := physSlot + (1-kMSB)*spanH

	s.cache.Remove(level, base)
	s.setRegion(base, spanH, lowSlot, keyLow, level-1)
	s.setRegion(base+spanH, spanH, highSlot, keyLow, level-1)
	s.cache.Insert(cmt.Entry{Base: base, Level: level - 1, Prn: lowSlot / spanH, Key: keyLow})
	s.cache.Insert(cmt.Entry{Base: base + spanH, Level: level - 1, Prn: highSlot / spanH, Key: keyLow})

	c := s.ctr[base]
	s.ctr[base] = c / 2
	s.ctr[base+spanH] = c - c/2
	s.splits++
}
