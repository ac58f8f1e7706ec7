package imt

import (
	"testing"

	"nvmwear/internal/gtd"
	"nvmwear/internal/nvm"
)

// harness builds a device + GTD + IMT for M data lines at granularity P.
func harness(dataLines, initGran uint64) (*nvm.Device, *gtd.Directory, *Table) {
	tl := TranslationLines(dataLines, initGran, 6)
	gcfg := gtd.Config{Base: dataLines, Lines: tl, Granularity: 4, Period: 128, Seed: 3}
	dev := nvm.New(nvm.Config{
		Lines: dataLines + gcfg.PhysLines(), SpareLines: 0, Endurance: 1 << 30,
	})
	dir := gtd.New(dev, gcfg)
	return dev, dir, New(dir, dataLines, initGran, 6)
}

func TestInitialIdentity(t *testing.T) {
	_, _, tab := harness(256, 4)
	if tab.NumEntries() != 64 || tab.initGran != 4 {
		t.Fatal("geometry")
	}
	for lma := uint64(0); lma < 256; lma++ {
		if tab.Translate(lma) != lma {
			t.Fatalf("initial Translate(%d) != identity", lma)
		}
	}
	if err := tab.VerifyLevels(); err != nil {
		t.Fatal(err)
	}
}

func TestSetRangeAndRegion(t *testing.T) {
	dev, _, tab := harness(256, 4)
	// Merge entries 4..7 into one level-2 region at physical super-region 1
	// (lines 16..31... prn=1 at Q=16), key 5.
	d := uint64(1*16 + 5)
	tab.SetRange(4, 4, d, 2)
	base, span, e := tab.Region(6)
	if base != 4 || span != 4 || e.D != d || e.Level != 2 {
		t.Fatalf("region: base=%d span=%d %+v", base, span, e)
	}
	if g := tab.initGran << tab.levels[5]; g != 16 {
		t.Fatalf("granularity = %d", g)
	}
	if err := tab.VerifyLevels(); err != nil {
		t.Fatal(err)
	}
	// Translation through the merged region: lma 16..31 map into lines
	// 16..31 permuted by key 5.
	seen := make(map[uint64]bool)
	for lma := uint64(16); lma < 32; lma++ {
		p := tab.Translate(lma)
		if p < 16 || p >= 32 || seen[p] {
			t.Fatalf("bad translate %d -> %d", lma, p)
		}
		seen[p] = true
	}
	_ = dev
}

func TestSetRangeWearsTranslationLines(t *testing.T) {
	dev, dir, tab := harness(4096, 4) // 1024 entries, 171 translation lines
	before := dir.Stats().Writes
	// Entries 4..7 span translation lines 0 and 1 (6 entries per line).
	tab.SetRange(4, 4, 4*4, 2)
	if writes := dir.Stats().Writes - before; writes != 2 {
		t.Fatalf("translation line writes = %d, want 2", writes)
	}
	before = dir.Stats().Writes
	// Entries 8..11 all live on translation line 1: one write.
	tab.SetRange(8, 4, 8*4, 2)
	if writes := dir.Stats().Writes - before; writes != 1 {
		t.Fatalf("translation line writes = %d, want 1", writes)
	}
	_ = dev
}

func TestReadAccountsTranslationLineRead(t *testing.T) {
	dev, _, tab := harness(256, 4)
	r0 := dev.Stats().TotalReads
	e := tab.Read(10)
	if e.D != 40 || e.Level != 0 {
		t.Fatalf("entry: %+v", e)
	}
	if dev.Stats().TotalReads != r0+1 {
		t.Fatal("read not accounted")
	}
}

func TestVerifyLevelsCatchesCorruption(t *testing.T) {
	_, _, tab := harness(256, 4)
	tab.SetRange(4, 4, 16, 2)
	// Corrupt one sub-entry.
	tab.entries[5] = 99
	if err := tab.VerifyLevels(); err == nil {
		t.Fatal("corruption not detected")
	}
	tab.entries[5] = 16
	// Misaligned level.
	tab.levels[6] = 1
	if err := tab.VerifyLevels(); err == nil {
		t.Fatal("level corruption not detected")
	}
}

func TestVerifyLevelsCatchesUnmergedTwins(t *testing.T) {
	_, _, tab := harness(256, 4)
	// Two adjacent level-0 entries with identical D are indistinguishable
	// from a merged region — VerifyLevels must flag that.
	tab.entries[3] = tab.entries[2]
	if err := tab.VerifyLevels(); err == nil {
		t.Fatal("identical buddies not detected")
	}
}

func TestTranslationLinesFormula(t *testing.T) {
	if TranslationLines(4096, 4, 6) != 171 {
		t.Fatalf("TranslationLines = %d", TranslationLines(4096, 4, 6))
	}
	if TranslationLines(24, 4, 6) != 1 {
		t.Fatal("small table")
	}
}

func TestNVMBits(t *testing.T) {
	_, _, tab := harness(256, 4)
	// 64 entries * log2(256)=8 bits.
	if got := tab.NVMBits(); got != 64*8 {
		t.Fatalf("NVMBits = %d", got)
	}
}

func TestSetRangePanicsOnMisalignment(t *testing.T) {
	_, _, tab := harness(256, 4)
	for _, f := range []func(){
		func() { tab.SetRange(3, 2, 0, 1) }, // misaligned base
		func() { tab.SetRange(4, 3, 0, 1) }, // span not 2^level
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}

func TestConstructorPanics(t *testing.T) {
	_, dir, _ := harness(256, 4)
	for _, f := range []func(){
		func() { New(dir, 255, 4, 6) },
		func() { New(dir, 256, 3, 6) },
		func() { New(dir, 4, 8, 6) },
		func() { New(dir, 256, 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}
