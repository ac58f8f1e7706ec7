package nvm

import (
	"fmt"
	"slices"
	"testing"

	"nvmwear/internal/fault"
)

// spanRig is one device under test with what a span can change outside its
// counters: the retire hook's calls and the last read buffers.
type spanRig struct {
	d          *Device
	retired    []uint64
	bufA, bufB []uint64
}

// The reference: the per-line loops the span primitives replaced.

func refReadSpan(d *Device, base, key, n uint64, buf []uint64) {
	for i := uint64(0); i < n; i++ {
		buf[i] = d.ReadData(base + (i ^ key))
	}
}

func refReadSpans(d *Device, baseA, keyA, baseB, keyB, n uint64, bufA, bufB []uint64) {
	for i := uint64(0); i < n; i++ {
		bufA[i] = d.ReadData(baseA + (i ^ keyA))
		bufB[i] = d.ReadData(baseB + (i ^ keyB))
	}
}

func refWriteLine(d *Device, pma uint64, buf []uint64, i uint64) {
	if buf == nil {
		d.Write(pma)
	} else {
		d.WriteData(pma, buf[i])
	}
}

func refWriteSpan(d *Device, base, key, n uint64, buf []uint64) {
	for i := uint64(0); i < n; i++ {
		d.WriteData(base+(i^key), buf[i])
	}
}

func refWriteSpans(d *Device, baseA, keyA, baseB, keyB, n uint64, bufA, bufB []uint64) {
	for i := uint64(0); i < n; i++ {
		refWriteLine(d, baseA+(i^keyA), bufA, i)
		refWriteLine(d, baseB+(i^keyB), bufB, i)
	}
}

func refMoveSpan(d *Device, dst, src, n uint64) {
	for i := uint64(0); i < n; i++ {
		d.MoveData(dst+i, src+i)
	}
}

// FuzzSpan pins each span primitive to the per-line loop it replaced, on
// two identically built devices: one runs the primitive, the other the
// loop. Every line starts up to slack%48 writes short of its endurance and
// the spare pool is smaller than the longest span, so spare replacement
// and death land mid-span, and later steps run on a dead device. The
// program prog is read eight bytes a step: primitive, span length (1 to
// 64), two keys (0 or random below the length), two bases. After every
// step every Stats field, the wear vector, the payloads, the read buffers
// and the retire hook's calls must match.
func FuzzSpan(f *testing.F) {
	steps := [][]byte{
		{0, 5, 0x83, 0, 10, 0, 200, 0},
		{1, 4, 0x85, 0x8f, 3, 0, 90, 0},
		{2, 6, 0, 0x9b, 40, 0, 7, 0},
		{3, 3, 0x81, 0x86, 120, 0, 64, 0},
		{4, 5, 0, 0, 0, 0, 128, 0},
		{11, 2, 0x82, 0x83, 17, 0, 33, 0},
		{13, 6, 0xa5, 0, 180, 0, 0, 0},
		{3, 6, 0xff, 0xbe, 9, 0, 101, 0},
		{3, 4, 0x81, 0x81, 10, 0, 10, 0}, // A and B are the same lines
		{4, 5, 0, 0, 8, 0, 0, 0},         // the source overlaps below the destination
	}
	// Every seed runs all the steps, led by a different one, so each
	// primitive runs first on a live device, with faults off and on, with
	// keys 0 and random, and with lines packed at endurance or spread below
	// it (so some spans die early and some complete).
	for r := range steps {
		var prog []byte
		for k := range steps {
			prog = append(prog, steps[(r+k)%len(steps)]...)
		}
		for c := 0; c < 8; c++ {
			faults, keyed, spread := c&1 != 0, c&2 == 0, c&4 != 0
			variation, track, hook := r&1 != 0, (r+c)&1 == 0, r&2 == 0
			slack := uint8(3)
			if spread {
				slack = 40
			}
			f.Add(uint64(8*r+c), variation, faults, track, hook, keyed, slack, uint8(r), prog)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, variation, faults, track, hook, keyed bool, slack, spares uint8, prog []byte) {
		checkSpans(t, seed, variation, faults, track, hook, keyed, slack, spares, prog)
	})
}

func checkSpans(t *testing.T, seed uint64, variation, faults, track, hook, keyed bool, slack, spares uint8, prog []byte) {
	t.Helper()
	const lines, maxSpan = 256, 64
	cfg := Config{
		Lines: lines, SpareLines: uint64(spares % 8), Endurance: 40, Seed: seed,
		TrackData: track,
	}
	if variation {
		cfg.Variation = 0.25
	}
	if faults {
		cfg.Fault = fault.Config{TransientWriteRate: 0.1, StuckAtRate: 0.02,
			ReadDisturbRate: 0.1, MaxBitErrors: 6, Seed: seed}
	}
	newRig := func() *spanRig {
		r := &spanRig{d: New(cfg), bufA: make([]uint64, maxSpan), bufB: make([]uint64, maxSpan)}
		for i := uint64(0); i < lines; i++ {
			h := (seed + i) * 0x9e3779b97f4a7c15
			short := uint32((h ^ h>>29) % (uint64(slack)%48 + 1))
			e := r.d.lineEndurance(i)
			r.d.writes[i] = e - min(e, short)
			if track {
				r.d.data[i] = i<<32 | seed&0xffff
			}
		}
		if hook {
			r.d.SetRetireHook(func(pma uint64) { r.retired = append(r.retired, pma) })
		}
		return r
	}
	span, ref := newRig(), newRig()

	for step := 0; len(prog) >= 8; step, prog = step+1, prog[8:] {
		op, n := prog[0], uint64(1)<<(prog[1]%7)
		key := func(b byte) uint64 {
			if !keyed || b&0x80 == 0 {
				return 0
			}
			return uint64(b) % n
		}
		keyA, keyB := key(prog[2]), key(prog[3])
		baseA := (uint64(prog[4]) | uint64(prog[5])<<8) % (lines - n + 1)
		baseB := (uint64(prog[6]) | uint64(prog[7])<<8) % (lines - n + 1)
		// Payloads to write; bit 3 of op makes WriteSpans write none.
		payA, payB := make([]uint64, n), make([]uint64, n)
		for i := range payA {
			payA[i] = uint64(step)<<40 | uint64(i)
			payB[i] = uint64(step)<<40 | 1<<20 | uint64(i)
		}
		// A read overwrites every word it reads, zeros included.
		for _, r := range []*spanRig{span, ref} {
			for i := range r.bufA {
				r.bufA[i], r.bufB[i] = 0xdead, 0xbeef
			}
		}
		var name string
		switch op % 5 {
		case 0:
			name = "ReadSpan"
			span.d.ReadSpan(baseA, keyA, n, span.bufA)
			refReadSpan(ref.d, baseA, keyA, n, ref.bufA)
		case 1:
			name = "ReadSpans"
			span.d.ReadSpans(baseA, keyA, baseB, keyB, n, span.bufA, span.bufB)
			refReadSpans(ref.d, baseA, keyA, baseB, keyB, n, ref.bufA, ref.bufB)
		case 2:
			name = "WriteSpan"
			span.d.WriteSpan(baseA, keyA, n, payA)
			refWriteSpan(ref.d, baseA, keyA, n, payA)
		case 3:
			name = "WriteSpans"
			if op&8 != 0 {
				payA, payB = nil, nil
			}
			span.d.WriteSpans(baseA, keyA, baseB, keyB, n, payA, payB)
			refWriteSpans(ref.d, baseA, keyA, baseB, keyB, n, payA, payB)
		case 4:
			name = "MoveSpan"
			span.d.MoveSpan(baseA, baseB, n)
			refMoveSpan(ref.d, baseA, baseB, n)
		}
		where := fmt.Sprintf("step %d: %s(n=%d, A=%d^%d, B=%d^%d)", step, name, n, baseA, keyA, baseB, keyB)
		if a, b := span.d.Stats(), ref.d.Stats(); a != b {
			t.Fatalf("%s: stats diverge:\n span: %+v\n loop: %+v", where, a, b)
		}
		if i := firstDiff(span.d.writes, ref.d.writes); i >= 0 {
			t.Fatalf("%s: wear diverges at line %d: span %d, loop %d", where, i, span.d.writes[i], ref.d.writes[i])
		}
		if i := firstDiff(span.d.data, ref.d.data); i >= 0 {
			t.Fatalf("%s: payload diverges at line %d: span %#x, loop %#x", where, i, span.d.data[i], ref.d.data[i])
		}
		if !slices.Equal(span.bufA, ref.bufA) || !slices.Equal(span.bufB, ref.bufB) {
			t.Fatalf("%s: read buffers diverge:\n span: %v %v\n loop: %v %v", where, span.bufA, span.bufB, ref.bufA, ref.bufB)
		}
		if !slices.Equal(span.retired, ref.retired) {
			t.Fatalf("%s: retire hook calls diverge:\n span: %v\n loop: %v", where, span.retired, ref.retired)
		}
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff[T comparable](a, b []T) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
