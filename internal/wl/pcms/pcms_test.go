package pcms

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

func TestExchangeMovesRegionAcrossMemory(t *testing.T) {
	dev, s := newScheme(1024, 4, 1, 5)
	wltest.Fill(dev, s)
	homes := make(map[uint64]bool)
	for i := 0; i < 20000; i++ {
		s.Access(trace.Write, 17)
		homes[s.Translate(17)/4] = true
	}
	// With uniform random partners the attacked line should visit a large
	// share of the 256 physical regions.
	if len(homes) < 100 {
		t.Fatalf("attacked line visited only %d physical regions", len(homes))
	}
}

func TestWriteOverheadIsTwoOverPeriod(t *testing.T) {
	dev, s := newScheme(4096, 16, 8, 7)
	wltest.Fill(dev, s)
	for i := uint64(0); i < 400000; i++ {
		s.Access(trace.Write, i%4096)
	}
	oh := s.Stats().WriteOverhead()
	if oh < 0.20 || oh > 0.30 {
		t.Fatalf("overhead %.4f, want ~2/8", oh)
	}
	_ = dev
}

func TestRAALifetimeFarBetterThanRBSG(t *testing.T) {
	const lines = 1024
	dev := nvm.New(nvm.Config{Lines: lines, SpareLines: lines / 16, Endurance: 200, TrackData: true})
	s := New(dev, Config{Lines: lines, RegionLines: 4, Period: 4, Seed: 9})
	var served uint64
	for dev.Alive() {
		s.Access(trace.Write, 7)
		served++
		if served > 10*dev.IdealWrites() {
			break
		}
	}
	norm := float64(dev.Stats().TotalWrites) / float64(dev.IdealWrites())
	// The random exchange disperses RAA writes across the device: expect a
	// large fraction of ideal lifetime (RBSG achieves ~1/Regions).
	if norm < 0.30 {
		t.Fatalf("PCM-S RAA lifetime only %.1f%% of ideal", 100*norm)
	}
}

func TestSelfExchangeRekeys(t *testing.T) {
	// With one region the partner is always self; trigger a few exchanges
	// and verify integrity plus a changed key.
	dev, s := newScheme(16, 16, 1, 11)
	wltest.Fill(dev, s)
	for i := 0; i < 100; i++ {
		s.Access(trace.Write, uint64(i)%16)
	}
	wltest.CheckBijection(t, dev, s)
	wltest.CheckIntegrity(t, dev, s)
	if s.Stats().Remaps == 0 {
		t.Fatal("no remaps triggered")
	}
}

func TestStatsAndOverhead(t *testing.T) {
	_, s := newScheme(256, 8, 8, 13)
	if s.OverheadBits() == 0 || s.Name() != "PCM-S" || s.Lines() != 256 {
		t.Fatal("metadata")
	}
	if EntryBits(1<<20, 4) == 0 {
		t.Fatal("EntryBits")
	}
	// MWSR-style double mapping must be bigger than PCM-S's single one.
	if EntryBits(1<<20, 4)*2 <= EntryBits(1<<20, 4) {
		t.Fatal("arithmetic sanity")
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
