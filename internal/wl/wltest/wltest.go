// Package wltest provides the invariant checks shared by every
// wear-leveling scheme's tests: the logical→physical map must always be a
// bijection, and data written at a logical address must survive arbitrary
// interleavings of demand accesses and wear-leveling data exchanges.
package wltest

import (
	"testing"

	"nvmwear/internal/nvm"
	"nvmwear/internal/rng"
	"nvmwear/internal/trace"
	"nvmwear/internal/wl"
)

// Tag returns the shadow value associated with a logical address. Nonzero
// so it is distinguishable from unwritten lines.
func Tag(lma uint64) uint64 { return lma ^ 0xa5a5a5a5a5a5a5a5 }

// Fill seeds the device with each logical line's tag at its current
// physical location. The device must have been created with TrackData.
func Fill(dev *nvm.Device, lv wl.Leveler) {
	for lma := uint64(0); lma < lv.Lines(); lma++ {
		dev.WriteData(lv.Translate(lma), Tag(lma))
	}
}

// CheckBijection verifies that every logical line maps to a distinct,
// in-range physical line.
func CheckBijection(t *testing.T, dev *nvm.Device, lv wl.Leveler) {
	t.Helper()
	seen := make(map[uint64]uint64, lv.Lines())
	for lma := uint64(0); lma < lv.Lines(); lma++ {
		pma := lv.Translate(lma)
		if pma >= dev.Lines() {
			t.Fatalf("%s: Translate(%d) = %d outside device (%d lines)",
				lv.Name(), lma, pma, dev.Lines())
		}
		if prev, dup := seen[pma]; dup {
			t.Fatalf("%s: collision: lma %d and %d both map to pma %d",
				lv.Name(), prev, lma, pma)
		}
		seen[pma] = lma
	}
}

// CheckIntegrity verifies that every logical line still reads back its tag.
// Fill must have been called before the accesses under test.
func CheckIntegrity(t *testing.T, dev *nvm.Device, lv wl.Leveler) {
	t.Helper()
	for lma := uint64(0); lma < lv.Lines(); lma++ {
		pma := lv.Translate(lma)
		if got := dev.Peek(pma); got != Tag(lma) {
			t.Fatalf("%s: lma %d (pma %d): data %#x, want %#x",
				lv.Name(), lma, pma, got, Tag(lma))
		}
	}
}

// Exercise drives n random accesses (80%% writes, Zipf-skewed addresses so
// wear-leveling triggers fire on hot lines) through the scheme, checking
// the bijection periodically and data integrity at the end.
func Exercise(t *testing.T, dev *nvm.Device, lv wl.Leveler, n int, seed uint64) {
	t.Helper()
	Fill(dev, lv)
	CheckBijection(t, dev, lv)
	src := rng.New(seed)
	z := rng.NewZipf(src.Fork(), lv.Lines(), 1.1)
	checkEvery := n / 8
	if checkEvery == 0 {
		checkEvery = 1
	}
	for i := 0; i < n; i++ {
		op := trace.Read
		if src.Bool(0.8) {
			op = trace.Write
		}
		lma := z.Next()
		pma := lv.Access(op, lma)
		if want := lv.Translate(lma); pma != want {
			// Access may remap after serving; the served pma must have been
			// the mapping at access time, which we can only bound-check.
			if pma >= dev.Lines() {
				t.Fatalf("%s: access landed outside device: %d", lv.Name(), pma)
			}
			_ = want
		}
		if (i+1)%checkEvery == 0 {
			CheckBijection(t, dev, lv)
		}
	}
	CheckBijection(t, dev, lv)
	CheckIntegrity(t, dev, lv)
}

// Device creates a TrackData device big enough for integrity testing, with
// endurance high enough that wear-out never interferes.
func Device(lines, extra uint64) *nvm.Device {
	return nvm.New(nvm.Config{
		Lines:      lines + extra,
		SpareLines: 0,
		Endurance:  1 << 30,
		TrackData:  true,
	})
}

// BenchDevice creates a wear-proof device without data tracking for
// micro-benchmarks (TrackData would charge every access for the shadow
// array, distorting the request-path cost under measurement).
func BenchDevice(lines uint64) *nvm.Device {
	return nvm.New(nvm.Config{Lines: lines, Endurance: 1 << 30})
}

// benchRunLen matches the BPA workload's default repeat count: the batch
// path's run detection targets exactly this shape.
const benchRunLen = 64

// benchRequests precomputes n requests as 64-write runs to random lines.
func benchRequests(lines uint64, n int) ([]trace.Op, []uint64) {
	src := rng.New(1)
	ops := make([]trace.Op, n)
	addrs := make([]uint64, n)
	for i := 0; i < n; {
		lma := src.Uint64n(lines)
		for j := 0; j < benchRunLen && i < n; j++ {
			ops[i] = trace.Write
			addrs[i] = lma
			i++
		}
	}
	return ops, addrs
}

// BenchAccess benchmarks a scheme's request path on the BPA request shape
// (64-write runs to random lines): once through the per-request Access loop
// and once through one AccessBatch call over the whole request slice. mk
// must return a fresh scheme on a wear-proof device (BenchDevice), so the
// run never dies.
func BenchAccess(b *testing.B, mk func() wl.Leveler) {
	b.Run("scalar", func(b *testing.B) {
		lv := mk()
		ops, addrs := benchRequests(lv.Lines(), b.N)
		b.ResetTimer()
		for i := range ops {
			lv.Access(ops[i], addrs[i])
		}
	})
	b.Run("batch", func(b *testing.B) {
		lv := mk()
		ops, addrs := benchRequests(lv.Lines(), b.N)
		b.ResetTimer()
		if n := lv.AccessBatch(ops, addrs); n != len(ops) {
			b.Fatalf("%s: AccessBatch served %d of %d requests (device died?)", lv.Name(), n, len(ops))
		}
	})
}
