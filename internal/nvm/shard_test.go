package nvm

import "testing"

func TestShareLinesSumsExactly(t *testing.T) {
	for _, c := range []struct{ total, banks uint64 }{
		{0, 4}, {1, 4}, {3, 4}, {4, 4}, {1000, 3}, {1 << 16, 32}, {1<<16 + 7, 32},
	} {
		var sum uint64
		var prev uint64
		for b := uint64(0); b < c.banks; b++ {
			s := ShareLines(c.total, b, c.banks)
			if b > 0 && s > prev {
				t.Fatalf("ShareLines(%d,%d,%d)=%d grew past bank %d's %d; remainder must go low",
					c.total, b, c.banks, s, b-1, prev)
			}
			prev = s
			sum += s
		}
		if sum != c.total {
			t.Fatalf("ShareLines over %d banks sums to %d, want %d", c.banks, sum, c.total)
		}
	}
}

func TestMergeStats(t *testing.T) {
	a := Stats{Lines: 100, TotalWrites: 1000, TotalReads: 5, MaxWear: 40, MeanWear: 10,
		FailedLines: 2, SparesUsed: 2, SpareLines: 4, Dead: false}
	b := Stats{Lines: 300, TotalWrites: 200, TotalReads: 7, MaxWear: 90, MeanWear: 2,
		FailedLines: 1, SparesUsed: 1, SpareLines: 4, Dead: true}
	m := MergeStats(a, b)
	if m.Lines != 400 || m.TotalWrites != 1200 || m.TotalReads != 12 ||
		m.FailedLines != 3 || m.SparesUsed != 3 || m.SpareLines != 8 {
		t.Fatalf("summed counters wrong: %+v", m)
	}
	if m.MaxWear != 90 {
		t.Fatalf("MaxWear = %d, want max across banks", m.MaxWear)
	}
	// Line-weighted mean: (10*100 + 2*300) / 400 = 4.
	if m.MeanWear != 4 {
		t.Fatalf("MeanWear = %v, want line-weighted 4", m.MeanWear)
	}
	if m.Dead {
		t.Fatal("merged device dead with a live bank; death must be latest-death")
	}
	if !MergeStats(b, b).Dead {
		t.Fatal("all banks dead must merge dead")
	}
	if z := MergeStats(); z != (Stats{}) {
		t.Fatalf("empty merge = %+v, want zero", z)
	}
}

// MergeStats over real shard devices must agree with one whole device
// driven identically: same uniform writes into each half vs the whole.
func TestMergeStatsMatchesWholeDevice(t *testing.T) {
	whole := New(Config{Lines: 64, SpareLines: 8, Endurance: 50})
	left := New(Config{Lines: 32, SpareLines: 4, Endurance: 50})
	right := New(Config{Lines: 32, SpareLines: 4, Endurance: 50})
	for i := uint64(0); i < 64*20; i++ {
		addr := i % 64
		whole.Write(addr)
		if addr < 32 {
			left.Write(addr)
		} else {
			right.Write(addr - 32)
		}
	}
	w, m := whole.Stats(), MergeStats(left.Stats(), right.Stats())
	if w.TotalWrites != m.TotalWrites || w.MaxWear != m.MaxWear ||
		w.MeanWear != m.MeanWear || w.Lines != m.Lines || w.Dead != m.Dead {
		t.Fatalf("merged halves diverge from whole device:\nwhole %+v\nmerge %+v", w, m)
	}
}
