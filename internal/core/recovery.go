package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"nvmwear/internal/nvm"
)

// This file implements the metadata durability story the paper outlines in
// Sec 3.1: "to prevent the loss or corruption of the metadata (e.g., data
// stored in the CMT, GTD and IMT tables) due to power failures, the updated
// metadata are written back to the NVM devices ... we assume that there is
// a battery backup in the memory controller to refresh metadata during
// power failure". The paper defers the mechanism to prior work; this
// package implements it concretely:
//
//   - Checkpoint serializes the battery-flushed controller state: the GTD's
//     directory, the IMT contents (standing in for the NVM-resident
//     translation lines, which survive power loss on a real device), the
//     per-region write counters and the adaptation state. The CMT is
//     deliberately NOT included — it is a cache and is rebuilt cold.
//   - Recover reconstructs a Scheme over the surviving device from a
//     checkpoint, recomputing all derived state (the reverse map) and
//     verifying internal consistency before returning.
//
// The format is versioned and length-checked so corrupted checkpoints are
// rejected rather than silently misinterpreted.

// checkpointMagic identifies the serialized format.
const checkpointMagic = uint32(0x5a574c31) // "ZWL1"

// Checkpoint serializes the durable controller metadata.
func (s *Scheme) Checkpoint() []byte {
	var buf bytes.Buffer
	w := func(v interface{}) {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			panic(err) // bytes.Buffer cannot fail
		}
	}
	w(checkpointMagic)
	w(s.cfg.Lines)
	w(s.cfg.InitGran)
	w(uint64(s.nRegions))
	w(uint8(s.mode))
	w(s.lowRun)
	w(s.highRun)
	w(s.requests)
	w(s.merges)
	w(s.splits)
	for i := uint64(0); i < s.nRegions; i++ {
		w(s.table.Get(i).D)
	}
	for i := uint64(0); i < s.nRegions; i++ {
		w(s.table.Get(i).Level)
	}
	w(s.ctr)
	gtdTable := s.dir.Snapshot()
	w(uint64(len(gtdTable)))
	w(gtdTable)
	return buf.Bytes()
}

// Recover rebuilds a Scheme over dev from a checkpoint produced by a
// previous instance with the same configuration. The device (with its wear
// state and the NVM-resident tables it represents) must be the one that
// survived the power failure.
func Recover(dev *nvm.Device, cfg Config, checkpoint []byte) (*Scheme, error) {
	s := New(dev, cfg)
	r := bytes.NewReader(checkpoint)
	read := func(v interface{}) error {
		return binary.Read(r, binary.LittleEndian, v)
	}
	var magic uint32
	if err := read(&magic); err != nil || magic != checkpointMagic {
		return nil, fmt.Errorf("core: bad checkpoint magic")
	}
	var lines, gran, regions uint64
	if err := read(&lines); err != nil {
		return nil, err
	}
	if err := read(&gran); err != nil {
		return nil, err
	}
	if err := read(&regions); err != nil {
		return nil, err
	}
	if lines != s.cfg.Lines || gran != s.p || regions != s.nRegions {
		return nil, fmt.Errorf("core: checkpoint geometry %d/%d/%d does not match config %d/%d/%d",
			lines, gran, regions, s.cfg.Lines, s.p, s.nRegions)
	}
	var mode uint8
	if err := read(&mode); err != nil {
		return nil, err
	}
	s.mode = Mode(mode)
	for _, p := range []*uint64{&s.lowRun, &s.highRun, &s.requests, &s.merges, &s.splits} {
		if err := read(p); err != nil {
			return nil, err
		}
	}
	s.nextCheck = s.cfg.CheckEvery - s.requests%s.cfg.CheckEvery
	entries := make([]uint64, regions)
	levels := make([]uint8, regions)
	if err := read(entries); err != nil {
		return nil, err
	}
	if err := read(levels); err != nil {
		return nil, err
	}
	if err := s.table.Load(entries, levels); err != nil {
		return nil, fmt.Errorf("core: checkpoint IMT invalid: %w", err)
	}
	if err := read(s.ctr); err != nil {
		return nil, err
	}
	var gtdLen uint64
	if err := read(&gtdLen); err != nil {
		return nil, err
	}
	if gtdLen > uint64(r.Len())/4 {
		return nil, fmt.Errorf("core: checkpoint GTD length %d exceeds its %d remaining bytes", gtdLen, r.Len())
	}
	gtdTable := make([]uint32, gtdLen)
	if err := read(gtdTable); err != nil {
		return nil, err
	}
	if err := s.dir.Restore(gtdTable); err != nil {
		return nil, fmt.Errorf("core: checkpoint GTD invalid: %w", err)
	}
	// Derived state: rebuild the reverse map by scanning the restored IMT.
	if err := s.rebuildRev(); err != nil {
		return nil, err
	}
	if err := s.CheckConsistency(); err != nil {
		return nil, fmt.Errorf("core: recovered state inconsistent: %w", err)
	}
	return s, nil
}

// rebuildRev recomputes the physical-slot reverse map from the IMT.
func (s *Scheme) rebuildRev() error {
	seen := make([]bool, s.nRegions)
	for i := uint64(0); i < s.nRegions; {
		base, span, e := s.table.Region(i)
		if base != i {
			return fmt.Errorf("core: region scan misaligned at %d", i)
		}
		prn, key := s.unpack(e)
		for sub := uint64(0); sub < span; sub++ {
			slot := s.revSlot(prn*span, key, sub)
			if slot >= s.nRegions || seen[slot] {
				return fmt.Errorf("core: IMT is not a bijection at region %d", base)
			}
			seen[slot] = true
			s.rev[slot] = uint32(base + sub)
		}
		i += span
	}
	return nil
}
