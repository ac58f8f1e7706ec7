package gtd

import (
	"testing"

	"nvmwear/internal/nvm"
)

func newDir(lines, gran, period uint64) (*nvm.Device, *Directory) {
	cfg := Config{Base: 1024, Lines: lines, Granularity: gran, Period: period, Seed: 7}
	dev := nvm.New(nvm.Config{Lines: 1024 + cfg.PhysLines(), SpareLines: 0, Endurance: 1 << 30})
	return dev, New(dev, cfg)
}

func TestTranslateInitialIdentity(t *testing.T) {
	_, d := newDir(64, 8, 100)
	for tlma := uint64(0); tlma < 64; tlma++ {
		if got := d.Translate(tlma); got != 1024+tlma {
			t.Fatalf("Translate(%d) = %d", tlma, got)
		}
	}
}

func TestTranslateBijection(t *testing.T) {
	dev, d := newDir(64, 8, 2)
	for i := 0; i < 1000; i++ {
		d.Write(uint64(i) % 64)
	}
	seen := make(map[uint64]bool)
	for tlma := uint64(0); tlma < 64; tlma++ {
		p := d.Translate(tlma)
		if p < 1024 || p >= dev.Lines() {
			t.Fatalf("Translate(%d) = %d out of reserved range", tlma, p)
		}
		if seen[p] {
			t.Fatalf("collision at %d", p)
		}
		seen[p] = true
	}
}

func TestWritesWearReservedArea(t *testing.T) {
	dev, d := newDir(64, 8, 1000000)
	for i := 0; i < 100; i++ {
		d.Write(5)
	}
	if dev.WearCounts()[1024+5] != 100 {
		t.Fatalf("translation line wear = %d", dev.WearCounts()[1024+5])
	}
	if d.Stats().Writes != 100 {
		t.Fatalf("stats writes = %d", d.Stats().Writes)
	}
}

func TestExchangeSpreadsWear(t *testing.T) {
	dev, d := newDir(64, 8, 4)
	for i := 0; i < 5000; i++ {
		d.Write(3)
	}
	st := d.Stats()
	if st.Remaps == 0 || st.SwapWrites == 0 {
		t.Fatalf("no exchanges: %+v", st)
	}
	// The hot translation line must have visited several regions.
	touched := 0
	for _, w := range dev.WearCounts()[1024:] {
		if w > 0 {
			touched++
		}
	}
	if touched < 16 {
		t.Fatalf("wear confined to %d lines", touched)
	}
}

func TestRoundUpToGranularity(t *testing.T) {
	cfg := Config{Lines: 65, Granularity: 8, Period: 1}
	if cfg.PhysLines() != 72 {
		t.Fatalf("PhysLines = %d", cfg.PhysLines())
	}
}

func TestReadDoesNotWear(t *testing.T) {
	dev, d := newDir(64, 8, 10)
	for i := 0; i < 100; i++ {
		d.Read(3)
	}
	if dev.Stats().TotalWrites != 0 {
		t.Fatal("reads wore the device")
	}
}

func TestOverheadBits(t *testing.T) {
	_, d := newDir(1024, 32, 100)
	// 32 regions, 5 bits each.
	if got := d.OverheadBits(); got != 32*5 {
		t.Fatalf("OverheadBits = %d", got)
	}
}

func TestConstructorPanics(t *testing.T) {
	dev := nvm.New(nvm.Config{Lines: 64, Endurance: 1})
	for _, cfg := range []Config{
		{Lines: 0, Granularity: 8, Period: 1},
		{Lines: 64, Granularity: 0, Period: 1},
		{Lines: 64, Granularity: 6, Period: 1},
		{Lines: 64, Granularity: 8, Period: 0},
		{Base: 32, Lines: 64, Granularity: 8, Period: 1},
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
