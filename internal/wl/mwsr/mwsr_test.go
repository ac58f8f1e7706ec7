package mwsr

import (
	"testing"

	"nvmwear/internal/nvm"
	"nvmwear/internal/trace"
	"nvmwear/internal/wl/wltest"
)

func newScheme(lines, q, period, seed uint64) (*nvm.Device, *Scheme) {
	dev := wltest.Device(lines, 0)
	return dev, New(dev, Config{Lines: lines, RegionLines: q, Period: period, Seed: seed})
}

func TestInitialIdentity(t *testing.T) {
	_, s := newScheme(256, 8, 8, 1)
	for lma := uint64(0); lma < 256; lma++ {
		if s.Translate(lma) != lma {
			t.Fatalf("initial mapping not identity at %d", lma)
		}
	}
	if s.regions != 32 {
		t.Fatalf("regions = %d", s.regions)
	}
}

func TestBijectionAndIntegrityUnderLoad(t *testing.T) {
	dev, s := newScheme(512, 8, 2, 3)
	wltest.Exercise(t, dev, s, 30000, 4)
}

func TestBijectionHeldMidMigration(t *testing.T) {
	// Force a migration and check the bijection after every single write
	// while it is in flight.
	dev, s := newScheme(128, 16, 2, 5)
	wltest.Fill(dev, s)
	for i := 0; i < 33; i++ { // hit the 2*16 = 32-write trigger
		s.Access(trace.Write, 3)
	}
	for i := 0; i < 200; i++ {
		s.Access(trace.Write, uint64(i)%32)
		wltest.CheckBijection(t, dev, s)
	}
	wltest.CheckIntegrity(t, dev, s)
}

func TestMigrationCompletes(t *testing.T) {
	dev, s := newScheme(128, 16, 2, 7)
	wltest.Fill(dev, s)
	for i := 0; i < 5000; i++ {
		s.Access(trace.Write, uint64(i)%128)
	}
	active := len(s.migs) - len(s.free)
	// Steady state: most migrations must retire (free list reused).
	if active > 4 {
		t.Fatalf("%d migrations stuck in flight", active)
	}
	if s.Stats().Remaps == 0 {
		t.Fatal("no migrations started")
	}
	wltest.CheckBijection(t, dev, s)
	wltest.CheckIntegrity(t, dev, s)
}

func TestWriteOverheadIsTwoOverPeriod(t *testing.T) {
	dev, s := newScheme(4096, 16, 8, 9)
	wltest.Fill(dev, s)
	for i := uint64(0); i < 400000; i++ {
		s.Access(trace.Write, i%4096)
	}
	oh := s.Stats().WriteOverhead()
	if oh < 0.17 || oh > 0.30 {
		t.Fatalf("overhead %.4f, want ~2/8", oh)
	}
	_ = dev
}

func TestRAADisperses(t *testing.T) {
	dev, s := newScheme(1024, 4, 2, 11)
	wltest.Fill(dev, s)
	homes := make(map[uint64]bool)
	for i := 0; i < 40000; i++ {
		s.Access(trace.Write, 17)
		homes[s.Translate(17)/4] = true
	}
	if len(homes) < 80 {
		t.Fatalf("attacked line visited only %d physical regions", len(homes))
	}
}

func TestSingleLineRegions(t *testing.T) {
	// Degenerate Q=1: migrations still work (pure region permutation).
	dev, s := newScheme(64, 1, 4, 13)
	wltest.Exercise(t, dev, s, 5000, 14)
}

func TestOverheadBitsExceedPCMSLayout(t *testing.T) {
	_, s := newScheme(256, 8, 8, 15)
	// MWSR stores double mappings: must exceed a single-mapping layout.
	single := uint64(32) * (6 + 4 + 24)
	if s.OverheadBits() <= single {
		t.Fatalf("MWSR overhead %d not larger than single-mapping %d", s.OverheadBits(), single)
	}
	if s.Name() != "MWSR" || s.Lines() != 256 {
		t.Fatal("metadata")
	}
	if EntryBits(1<<20, 4) == 0 {
		t.Fatal("EntryBits")
	}
}

func TestConstructorPanics(t *testing.T) {
	dev := wltest.Device(64, 0)
	for _, cfg := range []Config{
		{Lines: 63, RegionLines: 4, Period: 8},
		{Lines: 64, RegionLines: 3, Period: 8},
		{Lines: 64, RegionLines: 128, Period: 8},
		{Lines: 64, RegionLines: 4, Period: 0},
		{Lines: 256, RegionLines: 4, Period: 8},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", cfg)
				}
			}()
			New(dev, cfg)
		}()
	}
}
