package core

import (
	"testing"

	"nvmwear/internal/metrics"
	"nvmwear/internal/nvm"
	"nvmwear/internal/rng"
	"nvmwear/internal/trace"
	"nvmwear/internal/wl/wltest"
)

// newScheme builds a TrackData device + engine for testing. t may be nil
// (property tests construct schemes inside quick.Check closures).
func newScheme(t *testing.T, cfg Config) (*nvm.Device, *Scheme) {
	if t != nil {
		t.Helper()
	}
	cfg = cfg.withDefaults()
	dev := nvm.New(nvm.Config{
		Lines:     cfg.DeviceLines(),
		Endurance: 1 << 30,
		TrackData: true,
	})
	return dev, New(dev, cfg)
}

func small(adaptive bool) Config {
	return Config{
		Lines:        1 << 10,
		InitGran:     4,
		MaxGranLines: 64,
		Period:       4,
		CMTEntries:   32,
		Adaptive:     adaptive,
		// Aggressive adaptation windows so tests exercise merge/split fast.
		ObservationWindow: 1 << 10,
		SettlingWindow:    1 << 10,
		CheckEvery:        256,
		Seed:              7,
	}
}

func TestInitialIdentityMapping(t *testing.T) {
	_, s := newScheme(t, small(false))
	for lma := uint64(0); lma < 1<<10; lma++ {
		if s.Translate(lma) != lma {
			t.Fatalf("initial Translate(%d) != identity", lma)
		}
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestNames(t *testing.T) {
	_, nwl := newScheme(t, small(false))
	if nwl.Name() != "NWL-4" {
		t.Fatalf("name %q", nwl.Name())
	}
	_, sawl := newScheme(t, small(true))
	if sawl.Name() != "SAWL" {
		t.Fatalf("name %q", sawl.Name())
	}
}

func TestNWLBijectionAndIntegrityUnderLoad(t *testing.T) {
	dev, s := newScheme(t, small(false))
	wltest.Exercise(t, dev, s, 30000, 11)
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Remaps == 0 {
		t.Fatal("no data exchanges triggered")
	}
}

func TestSAWLBijectionAndIntegrityUnderLoad(t *testing.T) {
	dev, s := newScheme(t, small(true))
	wltest.Exercise(t, dev, s, 60000, 13)
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSAWLMergesUnderLowHitRate(t *testing.T) {
	// A footprint far larger than CMT reach at the initial granularity
	// drives the hit rate down; SAWL must respond by merging.
	cfg := small(true)
	cfg.CMTEntries = 16
	dev, s := newScheme(t, cfg)
	wltest.Fill(dev, s)
	src := rng.New(5)
	for i := 0; i < 200000; i++ {
		s.Access(trace.Write, src.Uint64n(1<<10))
	}
	if s.Merges() == 0 {
		t.Fatalf("no merges despite hit rate %.2f", s.Stats().HitRate())
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	wltest.CheckBijection(t, dev, s)
	wltest.CheckIntegrity(t, dev, s)
}

func TestSAWLImprovesHitRateOverNWL(t *testing.T) {
	run := func(adaptive bool) float64 {
		cfg := small(adaptive)
		cfg.CMTEntries = 16
		cfg.Period = 64
		dev, s := newScheme(t, cfg)
		src := rng.New(21)
		z := rng.NewZipf(src, 1<<10, 0.9)
		var hits, total uint64
		for i := 0; i < 300000; i++ {
			s.Access(trace.Write, z.Next())
		}
		st := s.Stats()
		hits, total = st.CMTHits, st.CMTHits+st.CMTMisses
		_ = dev
		return float64(hits) / float64(total)
	}
	nwl := run(false)
	sawl := run(true)
	if sawl <= nwl {
		t.Fatalf("SAWL hit rate %.3f not above NWL %.3f", sawl, nwl)
	}
}

func TestSAWLSplitsWhenHitRateHighAndImbalanced(t *testing.T) {
	cfg := small(true)
	cfg.CMTEntries = 64
	dev, s := newScheme(t, cfg)
	wltest.Fill(dev, s)
	src := rng.New(31)
	// Phase 1: miss-heavy traffic to force merges.
	for i := 0; i < 150000; i++ {
		s.Access(trace.Write, src.Uint64n(1<<10))
	}
	merges := s.Merges()
	if merges == 0 {
		t.Skip("workload did not push hit rate below merge threshold")
	}
	// Phase 2: tiny hot set -> hit rate ~1, hits all in the first LRU half.
	for i := 0; i < 200000; i++ {
		s.Access(trace.Write, uint64(i)%64)
	}
	if s.Splits() == 0 {
		t.Fatalf("no splits; mode=%v hit=%.3f", s.CurrentMode(), s.Stats().HitRate())
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	wltest.CheckBijection(t, dev, s)
	wltest.CheckIntegrity(t, dev, s)
}

func TestMergeDirectly(t *testing.T) {
	dev, s := newScheme(t, small(true))
	wltest.Fill(dev, s)
	// Merge regions 0 and 1.
	s.tryMerge(0)
	if s.Merges() != 1 {
		t.Fatal("merge not performed")
	}
	base, span, e := s.table.Region(0)
	if base != 0 || span != 2 || e.Level != 1 {
		t.Fatalf("merged region: base=%d span=%d level=%d", base, span, e.Level)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	wltest.CheckBijection(t, dev, s)
	wltest.CheckIntegrity(t, dev, s)
}

func TestMergeChainToMaxLevel(t *testing.T) {
	dev, s := newScheme(t, small(true))
	wltest.Fill(dev, s)
	// Repeated merges on region 0: 4 -> 8 -> 16 -> 32 -> 64 lines (max).
	for i := 0; i < 10; i++ {
		s.tryMerge(0)
		if err := s.CheckConsistency(); err != nil {
			t.Fatalf("merge %d: %v", i, err)
		}
	}
	_, _, e := s.table.Region(0)
	if wantLevel := uint8(4); e.Level != wantLevel { // 64 lines / gran 4
		t.Fatalf("level %d after merge chain, want %d", e.Level, wantLevel)
	}
	// Further merges must be refused at the cap.
	m := s.Merges()
	s.tryMerge(0)
	if s.Merges() != m {
		t.Fatal("merge beyond MaxGranLines")
	}
	wltest.CheckBijection(t, dev, s)
	wltest.CheckIntegrity(t, dev, s)
}

func TestMergeNormalizesBuddyLevel(t *testing.T) {
	dev, s := newScheme(t, small(true))
	wltest.Fill(dev, s)
	s.tryMerge(0) // regions {0,1} now level 1
	m := s.Merges()
	// Region {0,1}'s buddy {2,3} is still two level-0 regions; merging
	// region 0 again must first merge 2+3, then 0..3 — two merges.
	if !s.tryMerge(0) {
		t.Fatal("merge refused")
	}
	if s.Merges() != m+2 {
		t.Fatalf("merge chain: %d merges, want %d", s.Merges(), m+2)
	}
	_, span, _ := s.table.Region(0)
	if span != 4 {
		t.Fatalf("span %d", span)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	wltest.CheckBijection(t, dev, s)
	wltest.CheckIntegrity(t, dev, s)
}

func TestSplitIsFree(t *testing.T) {
	dev, s := newScheme(t, small(true))
	wltest.Fill(dev, s)
	s.tryMerge(0)
	preSwap := s.Stats().SwapWrites
	preWear := dev.Stats().TotalWrites
	s.trySplit(0)
	if s.Splits() != 1 {
		t.Fatal("split not performed")
	}
	if s.Stats().SwapWrites != preSwap {
		t.Fatal("split moved data (swap writes changed)")
	}
	// Only translation-line writes may have occurred.
	tableDelta := dev.Stats().TotalWrites - preWear
	if tableDelta > 4 {
		t.Fatalf("split cost %d device writes", tableDelta)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	wltest.CheckBijection(t, dev, s)
	wltest.CheckIntegrity(t, dev, s)
}

func TestSplitAfterExchangeRoundTrips(t *testing.T) {
	// merge -> exchange (re-key + relocate) -> split -> integrity.
	dev, s := newScheme(t, small(true))
	wltest.Fill(dev, s)
	s.tryMerge(8)
	s.exchange(8)
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	s.trySplit(8)
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	wltest.CheckBijection(t, dev, s)
	wltest.CheckIntegrity(t, dev, s)
}

func TestExchangeDisplacesMergedOccupant(t *testing.T) {
	// Build a large merged region, then exchange a small region into its
	// physical block: the occupant must be split and relocated correctly.
	dev, s := newScheme(t, small(true))
	wltest.Fill(dev, s)
	s.tryMerge(0)
	s.tryMerge(2)
	s.tryMerge(0) // region 0..3, 16 lines
	// Exchange region 16 repeatedly until it lands somewhere occupied by
	// the big region (random target; force determinism by many tries).
	for i := 0; i < 64; i++ {
		s.exchange(16 + uint64(i%4)*4/4)
		if err := s.CheckConsistency(); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
	}
	wltest.CheckBijection(t, dev, s)
	wltest.CheckIntegrity(t, dev, s)
}

func TestRAADispersedAcrossDevice(t *testing.T) {
	cfg := small(false)
	cfg.Period = 2
	dev, s := newScheme(t, cfg)
	wltest.Fill(dev, s)
	touched := make(map[uint64]bool)
	for i := 0; i < 50000; i++ {
		touched[s.Access(trace.Write, 13)] = true
	}
	if len(touched) < 100 {
		t.Fatalf("RAA landed on only %d distinct lines", len(touched))
	}
	_ = dev
}

func TestTranslationTableWearIsAccounted(t *testing.T) {
	cfg := small(false)
	cfg.Period = 2
	dev, s := newScheme(t, cfg)
	for i := 0; i < 20000; i++ {
		s.Access(trace.Write, uint64(i)%(1<<10))
	}
	st := s.Stats()
	if st.TableWrites == 0 {
		t.Fatal("no table writes recorded")
	}
	// Reserved-area lines must show wear.
	worn := 0
	for _, w := range dev.WearCounts()[1<<10:] {
		if w > 0 {
			worn++
		}
	}
	if worn == 0 {
		t.Fatal("reserved area unworn despite table writes")
	}
}

// TestGTDWearLevelsReservedArea pins the GTD ablation EXPERIMENTS.md
// quotes (reserved-area wear Gini 0.29 with the GTD's exchanges, 0.57
// without): hammering one region rewrites its translation line, and only
// the GTD's exchanges spread that wear over the reserved area.
func TestGTDWearLevelsReservedArea(t *testing.T) {
	gini := func(gtdPeriod uint64) float64 {
		cfg := Config{
			Lines: 1 << 12, InitGran: 4, Period: 2, CMTEntries: 256,
			GTDPeriod: gtdPeriod, Seed: 3,
		}
		dev := nvm.New(nvm.Config{Lines: cfg.DeviceLines(), Endurance: 1 << 30})
		s := New(dev, cfg)
		for i := 0; i < 300000; i++ {
			s.Access(trace.Write, uint64(i)%16)
		}
		return metrics.GiniUint32(dev.WearCounts()[1<<12:])
	}
	if with, without := gini(64), gini(1<<30); with >= without {
		t.Fatalf("reserved-area wear Gini %.3f with the GTD, %.3f without: the GTD did not flatten it", with, without)
	}
}

func TestCMTMissPathReadsIMT(t *testing.T) {
	cfg := small(false)
	cfg.CMTEntries = 2
	dev, s := newScheme(t, cfg)
	s.Access(trace.Read, 0)
	s.Access(trace.Read, 512)
	s.Access(trace.Read, 900)
	s.Access(trace.Read, 0) // evicted by now (capacity 2)
	st := s.Stats()
	if st.CMTMisses < 3 {
		t.Fatalf("misses = %d", st.CMTMisses)
	}
	if dev.Stats().TotalReads < 4 {
		t.Fatal("IMT reads not accounted")
	}
}

func TestOverheadBitsAndAccessors(t *testing.T) {
	_, s := newScheme(t, small(true))
	if s.OverheadBits() == 0 {
		t.Fatal("zero overhead")
	}
	if s.Lines() != 1<<10 {
		t.Fatal("lines")
	}
	if s.Table() == nil {
		t.Fatal("table accessor")
	}
	if s.CurrentMode() != ModeSteady {
		t.Fatal("fresh mode")
	}
	if ModeMerge.String() != "merge" || ModeSplit.String() != "split" || ModeSteady.String() != "steady" {
		t.Fatal("mode strings")
	}
}

func TestOnSampleFires(t *testing.T) {
	cfg := small(true)
	var samples []Sample
	cfg.OnSample = func(s Sample) { samples = append(samples, s) }
	_, s := newScheme(t, cfg)
	for i := 0; i < 3000; i++ {
		s.Access(trace.Write, uint64(i)%64)
	}
	if len(samples) != 3000/int(cfg.withDefaults().CheckEvery) {
		t.Fatalf("%d samples", len(samples))
	}
	if samples[0].Requests == 0 || samples[0].AvgRegionLines == 0 {
		t.Fatalf("sample contents: %+v", samples[0])
	}
}

func TestConfigGeometry(t *testing.T) {
	cfg := Config{Lines: 1 << 20}.withDefaults()
	tl, phys := cfg.TranslationArea()
	if tl == 0 || phys < tl {
		t.Fatalf("translation area: %d lines, %d phys", tl, phys)
	}
	if cfg.DeviceLines() != cfg.Lines+phys {
		t.Fatal("DeviceLines")
	}
}

func TestConstructorPanics(t *testing.T) {
	dev := nvm.New(nvm.Config{Lines: 64, Endurance: 1})
	for _, cfg := range []Config{
		{Lines: 63},
		{Lines: 1 << 10, InitGran: 3},
		{Lines: 4, InitGran: 8},
		{Lines: 1 << 10, MaxGranLines: 2},
		{Lines: 1 << 20}, // device too small
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

// Property-style stress: random interleaving of accesses, explicit merges,
// splits and exchanges, with invariants checked throughout.
func TestStructuralOperationStress(t *testing.T) {
	dev, s := newScheme(t, small(true))
	wltest.Fill(dev, s)
	src := rng.New(77)
	for i := 0; i < 3000; i++ {
		r := src.Uint64n(100)
		lrn := src.Uint64n(1 << 8) // initial region index
		switch {
		case r < 10:
			s.tryMerge(lrn)
		case r < 20:
			s.trySplit(lrn)
		case r < 30:
			s.exchange(lrn)
		default:
			op := trace.Read
			if src.Bool(0.6) {
				op = trace.Write
			}
			s.Access(op, src.Uint64n(1<<10))
		}
		if i%100 == 0 {
			if err := s.CheckConsistency(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			wltest.CheckBijection(t, dev, s)
		}
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	wltest.CheckBijection(t, dev, s)
	wltest.CheckIntegrity(t, dev, s)
}
