package core

import (
	"nvmwear/internal/trace"
)

// This file implements the folded access path for the tiered engine — the
// one documented override of wl.Driver. The tiered engine's reads do
// bookkeeping too (the CMT lookup, the observation window, the CheckEvery
// adaptation), so it cannot be reduced to the Translate/Headroom/Commit
// kernel. The contract is wl.Leveler's: byte-identity with the per-request
// Access loop. Folding changes the arithmetic of repeated accesses, never
// which device writes, RNG draws, trigger firings or adaptation decisions
// happen, nor their order.
//
// The fold rests on three facts about the scalar path:
//
//   - Between structural events (exchange, merge, split) a region's mapping
//     is constant, so a run of accesses to one line hits one pma.
//   - A repeated CMT hit on the MRU entry is a pure counter increment: the
//     front node is always in the stack's first half, and promoting the
//     front node is a no-op.
//   - Every deferred action of the scalar loop fires at an exactly
//     computable counter boundary: the data exchange at ctr == ψ*Q, the
//     mode check at requests % CheckEvery == 0. Folding a chunk that stops
//     at the nearest boundary and then running the boundary's scalar-shaped
//     code reproduces the scalar sequence exactly.

// AccessBatch implements wl.Leveler: requests are served in order, with
// maximal runs of identical (op, lma) folded through repeatAccess. The
// first access of each run goes through the full scalar Access — it may
// miss the CMT, trigger an exchange, or apply a merge/split — so the folded
// tail always starts from a state where the run's entry is the MRU entry.
func (s *Scheme) AccessBatch(ops []trace.Op, addrs []uint64) int {
	n := len(ops)
	i := 0
	for i < n {
		if !s.dev.Alive() {
			return i
		}
		op, lma := ops[i], addrs[i]
		j := i + 1
		for j < n && ops[j] == op && addrs[j] == lma {
			j++
		}
		s.Access(op, lma)
		i++
		if i < j {
			i += s.repeatAccess(op, lma, j-i)
		}
	}
	return n
}

// repeatAccess applies up to k further accesses identical to (op, lma) and
// returns how many completed their bookkeeping (k, unless the device died).
// Chunks fold only when the fold is provably the scalar sequence:
//
//   - the MRU entry covers lma's initial region, so every access in the
//     chunk is a first-half CMT hit on that entry (at most one cached entry
//     can cover a region — cached regions are disjoint — so Lookup would
//     find exactly this one);
//   - in ModeSplit — where every scalar access calls trySplit — the
//     covering region is already at level 0 and metadata-fault injection is
//     off, so each per-access trySplit is provably a pure no-op (a level-0
//     region cannot split, and the lookup inside it only becomes observable
//     when the table verifies checksums). Otherwise split-mode accesses are
//     not foldable;
//   - the chunk stops at the nearest trigger boundary (ctr reaching ψ*Q)
//     and check boundary (requests reaching a CheckEvery multiple), where
//     the scalar-shaped boundary code runs.
//
// When a guard fails the access takes one scalar step, guaranteeing
// progress.
func (s *Scheme) repeatAccess(op trace.Op, lma uint64, k int) int {
	lrn0 := lma >> s.pShift
	done := 0
	for done < k {
		if !s.dev.Alive() {
			return done
		}
		e, ok := s.cache.Front()
		if !ok || e.Base != lrn0&^(uint64(1)<<e.Level-1) ||
			(s.mode == ModeSplit && (e.Level != 0 || s.metaFaults)) {
			s.Access(op, lma)
			done++
			continue
		}
		q := s.p << e.Level
		pma := e.Prn*q + ((lma & (q - 1)) ^ e.Key)

		c := uint64(k - done)
		if s.nextCheck < c {
			c = s.nextCheck
		}
		if op == trace.Write {
			if d := s.cfg.Period*q - uint64(s.ctr[e.Base]); d < c {
				c = d
			}
		}

		var applied uint64
		if op == trace.Write {
			served := s.dev.WriteRun(pma, c)
			applied = c
			if served < c {
				applied = served + 1 // the killing write's bookkeeping still runs
			}
			s.stats.DataWrites += applied
		} else {
			applied = s.dev.ReadRun(pma, c)
			s.stats.DataReads += applied
		}
		s.cache.RepeatHits(applied)
		if op == trace.Write {
			s.commit(e.Base, q, applied)
		}
		s.window.RecordRun(true, applied)
		if s.count(applied) {
			if s.cfg.Adaptive {
				s.check()
				// The boundary access's own post-check mode action. The
				// folded accesses before it had no-op mode actions (Steady
				// always; Merge hits never merge; Split only folds when
				// trySplit cannot act — see the guard above); the mode
				// cannot change mid-chunk because only check() changes it.
				if s.mode == ModeSplit {
					s.trySplit(lrn0)
				}
			} else {
				s.emitSample()
			}
		}
		done += int(applied)
	}
	return done
}
