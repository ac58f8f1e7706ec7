package nvm

import (
	"testing"
	"testing/quick"

	"nvmwear/internal/fault"
)

func TestWriteAccounting(t *testing.T) {
	d := New(Config{Lines: 16, SpareLines: 4, Endurance: 100})
	for i := 0; i < 50; i++ {
		if !d.Write(3) {
			t.Fatal("device died prematurely")
		}
	}
	s := d.Stats()
	if s.TotalWrites != 50 || s.MaxWear != 50 {
		t.Fatalf("stats: %+v", s)
	}
	if d.WearCounts()[3] != 50 {
		t.Fatalf("line 3 wear = %d", d.WearCounts()[3])
	}
}

func TestSpareReplacement(t *testing.T) {
	d := New(Config{Lines: 4, SpareLines: 2, Endurance: 10})
	// Line 0 serves 10 writes, then the 11th consumes a spare.
	for i := 0; i < 11; i++ {
		if !d.Write(0) {
			t.Fatalf("died at write %d", i)
		}
	}
	s := d.Stats()
	if s.SparesUsed != 1 || s.FailedLines != 1 {
		t.Fatalf("stats after first failure: %+v", s)
	}
	if d.WearCounts()[0] != 1 {
		t.Fatalf("spare wear = %d, want 1 (reset then served one write)", d.WearCounts()[0])
	}
	if !d.Alive() {
		t.Fatal("device dead with spares remaining")
	}
}

func TestDeviceDeathWhenSparesExhausted(t *testing.T) {
	d := New(Config{Lines: 4, SpareLines: 2, Endurance: 10})
	writes := 0
	for d.Alive() {
		if d.Write(1) {
			writes++
		}
		if writes > 1000 {
			t.Fatal("device never died")
		}
	}
	// 2 spares + original line = 3 lifetimes of 10 writes each.
	if writes != 30 {
		t.Fatalf("served %d writes, want 30", writes)
	}
	if d.Write(1) {
		t.Fatal("write succeeded on dead device")
	}
	if st := d.Stats(); !st.Dead {
		t.Fatal("stats not marked dead")
	}
}

func TestZeroSparesDiesOnFirstWearOut(t *testing.T) {
	d := New(Config{Lines: 4, SpareLines: 0, Endurance: 5})
	n := 0
	for d.Alive() {
		if d.Write(2) {
			n++
		}
	}
	if n != 5 {
		t.Fatalf("lifetime %d writes, want 5", n)
	}
}

func TestIdealWrites(t *testing.T) {
	d := New(Config{Lines: 100, SpareLines: 10, Endurance: 1000})
	if got := d.IdealWrites(); got != 110*1000 {
		t.Fatalf("IdealWrites = %d", got)
	}
}

func TestIdealWritesWithVariation(t *testing.T) {
	d := New(Config{Lines: 1000, SpareLines: 0, Endurance: 1000, Variation: 0.1, Seed: 1})
	ideal := d.IdealWrites()
	// Mean endurance should stay near nominal.
	if ideal < 900*1000 || ideal > 1100*1000 {
		t.Fatalf("IdealWrites with variation = %d", ideal)
	}
}

func TestVariationBounds(t *testing.T) {
	d := New(Config{Lines: 10000, SpareLines: 0, Endurance: 1000, Variation: 0.3, Seed: 7})
	for i := range d.endurance {
		e := d.endurance[i]
		if e < 250 || e > 2000 {
			t.Fatalf("line %d endurance %d outside truncation", i, e)
		}
	}
}

func TestVariationDeterministicBySeed(t *testing.T) {
	a := New(Config{Lines: 100, Endurance: 1000, Variation: 0.2, Seed: 42, SpareLines: 1})
	b := New(Config{Lines: 100, Endurance: 1000, Variation: 0.2, Seed: 42, SpareLines: 1})
	for i := range a.endurance {
		if a.endurance[i] != b.endurance[i] {
			t.Fatal("same seed, different endurance map")
		}
	}
}

func TestDataIntegrity(t *testing.T) {
	d := New(Config{Lines: 8, SpareLines: 8, Endurance: 100, TrackData: true})
	d.WriteData(5, 0xdead)
	if v := d.ReadData(5); v != 0xdead {
		t.Fatalf("read back %#x", v)
	}
	d.MoveData(2, 5)
	if v := d.ReadData(2); v != 0xdead {
		t.Fatalf("moved value %#x", v)
	}
	if d.Peek(5) != 0xdead {
		t.Fatal("source clobbered by move")
	}
}

func TestReadsDoNotWear(t *testing.T) {
	d := New(Config{Lines: 4, SpareLines: 0, Endurance: 2})
	for i := 0; i < 100; i++ {
		d.Read(0)
		d.ReadData(0)
	}
	if !d.Alive() || d.Stats().MaxWear != 0 {
		t.Fatal("reads wore the device")
	}
	if d.Stats().TotalReads != 200 {
		t.Fatalf("reads = %d", d.Stats().TotalReads)
	}
}

func TestDefaults(t *testing.T) {
	d := New(Config{Lines: 4, Endurance: 1})
	if c := d.cfg; c.ECCBits != 4 || c.WriteRetries != 3 {
		t.Fatalf("defaults: %+v", c)
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, cfg := range []Config{{Lines: 0, Endurance: 1}, {Lines: 4, Endurance: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// Property: total writes served before death never exceeds IdealWrites, and
// with all writes focused on one line it equals (spares+1) * endurance.
func TestLifetimeNeverExceedsIdeal(t *testing.T) {
	err := quick.Check(func(linesExp uint8, spares uint8, end uint8) bool {
		lines := uint64(1) << (linesExp%4 + 1)
		e := uint32(end%50 + 2)
		d := New(Config{Lines: lines, SpareLines: uint64(spares % 8), Endurance: e})
		n := uint64(0)
		for d.Alive() && n < 1<<20 {
			d.Write(n % lines)
			n++
		}
		return d.Stats().TotalWrites <= d.IdealWrites()
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

// Uniform round-robin writes should achieve exactly the ideal lifetime
// (every line worn to its limit before death).
func TestUniformWritesReachIdeal(t *testing.T) {
	d := New(Config{Lines: 8, SpareLines: 0, Endurance: 50})
	var n, served uint64
	for d.Alive() {
		if d.Write(n % 8) {
			served++
		}
		n++
	}
	if served != d.IdealWrites() {
		t.Fatalf("uniform lifetime %d, ideal %d", served, d.IdealWrites())
	}
}

func BenchmarkWrite(b *testing.B) {
	d := New(Config{Lines: 1 << 20, SpareLines: 1 << 20, Endurance: 1 << 30})
	mask := uint64(1<<20 - 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Write(uint64(i) & mask)
	}
}

func TestEnergyAccounting(t *testing.T) {
	d := New(Config{Lines: 16, SpareLines: 0, Endurance: 1 << 30})
	for i := 0; i < 5; i++ {
		d.Read(0)
	}
	for i := 0; i < 3; i++ {
		d.Write(1)
	}
	if got := d.EnergyPJ(); got != 5*readEnergyPJ+3*writeEnergyPJ {
		t.Fatalf("energy = %v", got)
	}
}

// One 64 B line access costs the published MLC PCM figures: 2 pJ/bit to
// read, 30 pJ/bit to write.
func TestEnergyDefaults(t *testing.T) {
	d := New(Config{Lines: 4, Endurance: 1 << 10})
	d.Read(0)
	if got := d.EnergyPJ(); got != 2*512 {
		t.Fatalf("one read = %v pJ, want %v", got, 2*512)
	}
	d.Write(1)
	if got := d.EnergyPJ(); got != 2*512+30*512 {
		t.Fatalf("one read + one write = %v pJ, want %v", got, 32*512)
	}
}

// --- spare-line edge cases (writes exactly at lineEndurance, last-spare
// consumption, Alive transitions) -------------------------------------------

func TestSpareLineEdgeCases(t *testing.T) {
	cases := []struct {
		name       string
		spares     uint64
		endurance  uint32
		wantWrites uint64 // total served writes to a single line before death
	}{
		{"no spares", 0, 1, 1},
		{"one spare", 1, 1, 2},
		{"one spare higher endurance", 1, 7, 14},
		{"many spares", 5, 3, 18},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := New(Config{Lines: 2, SpareLines: tc.spares, Endurance: tc.endurance})
			var served uint64
			for i := uint64(0); i < tc.wantWrites; i++ {
				if !d.Alive() {
					t.Fatalf("dead after %d writes, want %d served", i, tc.wantWrites)
				}
				if !d.Write(0) {
					t.Fatalf("write %d rejected while alive", i)
				}
				served++
			}
			// The device is still alive at this instant: death is only
			// declared when a write *needs* a spare that does not exist.
			if !d.Alive() {
				t.Fatal("device died on the exact last endurable write")
			}
			if d.Write(0) {
				t.Fatalf("write %d served beyond (spares+1)*endurance", served+1)
			}
			if d.Alive() {
				t.Fatal("device alive after rejecting a write")
			}
			if s := d.Stats(); s.TotalWrites != tc.wantWrites {
				t.Fatalf("TotalWrites = %d, want %d", s.TotalWrites, tc.wantWrites)
			}
		})
	}
}

func TestWriteExactlyAtEnduranceDoesNotConsumeSpare(t *testing.T) {
	d := New(Config{Lines: 2, SpareLines: 3, Endurance: 10})
	for i := 0; i < 10; i++ {
		d.Write(0)
	}
	if s := d.Stats(); s.SparesUsed != 0 || s.FailedLines != 0 || s.MaxWear != 10 {
		t.Fatalf("stats after exactly-endurance writes: %+v", s)
	}
	// The very next write crosses the limit and consumes exactly one spare.
	d.Write(0)
	if s := d.Stats(); s.SparesUsed != 1 || s.FailedLines != 1 {
		t.Fatalf("stats after crossing endurance: %+v", s)
	}
}

func TestLastSpareConsumption(t *testing.T) {
	d := New(Config{Lines: 2, SpareLines: 2, Endurance: 4})
	// Burn through the original line and the first spare.
	for i := 0; i < 2*4+1; i++ {
		if !d.Write(1) {
			t.Fatalf("write %d rejected", i)
		}
	}
	s := d.Stats()
	if s.SparesUsed != 2 {
		t.Fatalf("SparesUsed = %d, want 2 (last spare in service)", s.SparesUsed)
	}
	if !d.Alive() {
		t.Fatal("device dead while the last spare still serves writes")
	}
	// The last spare serves its remaining endurance...
	for i := 0; i < 3; i++ {
		if !d.Write(1) {
			t.Fatalf("last-spare write %d rejected", i)
		}
	}
	// ...and the next write finds the pool empty.
	if d.Write(1) {
		t.Fatal("write served after the last spare wore out")
	}
	if d.Alive() {
		t.Fatal("Alive() true after spare exhaustion")
	}
}

func TestAliveTransitionIsPermanent(t *testing.T) {
	d := New(Config{Lines: 2, SpareLines: 0, Endurance: 1})
	d.Write(0)
	d.Write(0) // kills the device
	if d.Alive() {
		t.Fatal("device alive after exhaustion")
	}
	// Writes to a *different, unworn* line are still rejected: death is a
	// device-level state, not a per-line one.
	if d.Write(1) {
		t.Fatal("dead device served a write to a fresh line")
	}
}

func TestVariationEnduranceNeverZero(t *testing.T) {
	// Nominal endurance < 4 makes the lower truncation bound round to zero;
	// the constructor must clamp each line to at least one write.
	d := New(Config{Lines: 1 << 12, SpareLines: 0, Endurance: 2, Variation: 0.5, Seed: 3})
	for i, e := range d.endurance {
		if e == 0 {
			t.Fatalf("line %d drew zero endurance", i)
		}
	}
}

// --- fault injection and recovery -------------------------------------------

func TestZeroFaultConfigDrawsNothing(t *testing.T) {
	clean := New(Config{Lines: 64, SpareLines: 8, Endurance: 50})
	faulty := New(Config{Lines: 64, SpareLines: 8, Endurance: 50,
		Fault: fault.Config{Seed: 99}}) // all rates zero -> disabled
	if faulty.inj != nil {
		t.Fatal("zero-rate fault config produced an injector")
	}
	for i := uint64(0); i < 5000; i++ {
		a := clean.Write(i % 64)
		b := faulty.Write(i % 64)
		if a != b {
			t.Fatalf("write %d diverged", i)
		}
		clean.Read(i % 64)
		faulty.Read(i % 64)
	}
	if clean.Stats() != faulty.Stats() {
		t.Fatalf("stats diverged:\n%+v\n%+v", clean.Stats(), faulty.Stats())
	}
}

func TestTransientWriteRetrySucceeds(t *testing.T) {
	// Transient rate is high enough to fire but retries mostly succeed:
	// writes should still be served and retries counted.
	d := New(Config{Lines: 16, SpareLines: 1 << 20, Endurance: 1 << 30,
		Fault: fault.Config{TransientWriteRate: 0.3, Seed: 5}})
	for i := uint64(0); i < 20000; i++ {
		if !d.Write(i % 16) {
			t.Fatalf("write %d rejected", i)
		}
	}
	s := d.Stats()
	if s.TransientWriteFaults == 0 {
		t.Fatal("no transient faults fired at rate 0.3")
	}
	if s.WriteRetries < s.TransientWriteFaults {
		t.Fatalf("retries %d < faults %d", s.WriteRetries, s.TransientWriteFaults)
	}
	if s.TotalWrites < 20000+s.WriteRetries {
		t.Fatalf("retry pulses not counted as wear: total %d", s.TotalWrites)
	}
}

func TestRetryEscalationConsumesSpare(t *testing.T) {
	// With transient rate 1.0 every retry also fails, so every write
	// escalates: retry budget exhausted -> line remapped to a spare.
	d := New(Config{Lines: 4, SpareLines: 100, Endurance: 1 << 30, WriteRetries: 2,
		Fault: fault.Config{TransientWriteRate: 1.0, Seed: 5}})
	if !d.Write(0) {
		t.Fatal("write rejected with spares available")
	}
	s := d.Stats()
	if s.RetryEscalations != 1 || s.WriteRetries != 2 {
		t.Fatalf("escalation stats: %+v", s)
	}
	if s.SparesUsed != 1 {
		t.Fatalf("SparesUsed = %d, want 1 (escalation remap)", s.SparesUsed)
	}
}

func TestStuckFaultConsumesSpareAndRewrites(t *testing.T) {
	d := New(Config{Lines: 4, SpareLines: 10, Endurance: 1 << 30,
		Fault: fault.Config{StuckAtRate: 1.0, Seed: 5}})
	if !d.Write(0) {
		t.Fatal("stuck write not recovered with spares available")
	}
	s := d.Stats()
	if s.StuckLineFaults != 1 || s.SparesUsed != 1 {
		t.Fatalf("stuck stats: %+v", s)
	}
	if s.TotalWrites != 2 { // original pulse + rewrite on the spare
		t.Fatalf("TotalWrites = %d, want 2", s.TotalWrites)
	}
}

func TestFaultEscalationCanKillDevice(t *testing.T) {
	d := New(Config{Lines: 4, SpareLines: 2, Endurance: 1 << 30,
		Fault: fault.Config{StuckAtRate: 1.0, Seed: 5}})
	n := 0
	for d.Alive() && n < 100 {
		d.Write(0)
		n++
	}
	if d.Alive() {
		t.Fatal("device survived unbounded stuck faults with 2 spares")
	}
	if s := d.Stats(); !s.Dead || s.SparesUsed != 2 {
		t.Fatalf("death stats: %+v", s)
	}
}

func TestECCModelThresholds(t *testing.T) {
	// MaxBitErrors=2 < ECCBits=4: every disturb is silently corrected.
	d := New(Config{Lines: 8, SpareLines: 4, Endurance: 100, ECCBits: 4,
		Fault: fault.Config{ReadDisturbRate: 1.0, MaxBitErrors: 2, Seed: 7}})
	for i := 0; i < 1000; i++ {
		d.Read(0)
	}
	s := d.Stats()
	if s.CorrectedBits == 0 {
		t.Fatal("no bits corrected at disturb rate 1.0")
	}
	if s.ECCRemaps != 0 || s.Uncorrectable != 0 {
		t.Fatalf("errors below ECC budget escalated: %+v", s)
	}

	// MaxBitErrors=1 with ECCBits=1: every disturb hits the remap threshold.
	d = New(Config{Lines: 8, SpareLines: 1 << 20, Endurance: 100, ECCBits: 1,
		Fault: fault.Config{ReadDisturbRate: 1.0, MaxBitErrors: 1, Seed: 7}})
	for i := 0; i < 100; i++ {
		d.Read(0)
	}
	s = d.Stats()
	if s.ECCRemaps != 100 || s.Uncorrectable != 0 {
		t.Fatalf("at-threshold stats: %+v", s)
	}
	if s.TotalWrites != 100 { // one scrub rewrite per remap
		t.Fatalf("scrub writes = %d, want 100", s.TotalWrites)
	}

	// ECCBits=1, MaxBitErrors=8: draws of k>=2 are uncorrectable.
	d = New(Config{Lines: 8, SpareLines: 1 << 20, Endurance: 100, ECCBits: 1,
		Fault: fault.Config{ReadDisturbRate: 1.0, MaxBitErrors: 8, Seed: 7}})
	for i := 0; i < 1000; i++ {
		d.Read(0)
	}
	if s = d.Stats(); s.Uncorrectable == 0 {
		t.Fatal("no uncorrectable losses with 8-bit disturbs and 1-bit ECC")
	}
}

func TestReadDataInjectsFaults(t *testing.T) {
	d := New(Config{Lines: 8, SpareLines: 0, Endurance: 100, ECCBits: 8, TrackData: true,
		Fault: fault.Config{ReadDisturbRate: 1.0, MaxBitErrors: 4, Seed: 7}})
	for i := 0; i < 200; i++ {
		d.ReadData(0)
	}
	if d.Stats().CorrectedBits == 0 {
		t.Fatal("ReadData bypassed the fault model")
	}
}

func TestFaultDeterminismBySeed(t *testing.T) {
	run := func() Stats {
		d := New(Config{Lines: 32, SpareLines: 1 << 16, Endurance: 200,
			Fault: fault.Config{TransientWriteRate: 0.05, StuckAtRate: 0.01,
				ReadDisturbRate: 0.1, Seed: 11}})
		for i := uint64(0); i < 20000; i++ {
			d.Write(i % 32)
			d.Read((i * 7) % 32)
		}
		return d.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different fault history:\n%+v\n%+v", a, b)
	}
}
