package workload

import (
	"testing"

	"nvmwear/internal/trace"
)

func TestRateModePartitionsDisjoint(t *testing.T) {
	p, _ := ProfileByName("bzip2")
	part := uint64(1<<16) / 8
	counts := make([]int, 8)
	for _, req := range take(NewRateMode(p, 3, 1<<16, 8), 80000) {
		if req.Addr >= 1<<16 {
			t.Fatalf("address %d out of space", req.Addr)
		}
		counts[req.Addr/part]++
	}
	// Round-robin issue: each partition must receive exactly 1/8 of the
	// requests.
	for i, c := range counts {
		if c != 10000 {
			t.Fatalf("partition %d received %d requests, want 10000", i, c)
		}
	}
}

func TestRateModeCopiesNotLockstep(t *testing.T) {
	p, _ := ProfileByName("gcc")
	reqs := take(NewRateMode(p, 7, 1<<16, 2), 2000)
	part := uint64(1<<16) / 2
	same := 0
	for i := 0; i < len(reqs); i += 2 {
		a, b := reqs[i], reqs[i+1]
		if a.Addr == b.Addr-part && a.Op == b.Op {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("copies in lockstep: %d/1000 mirrored requests", same)
	}
}

func TestRateModeDeterministic(t *testing.T) {
	p, _ := ProfileByName("mcf")
	a, b := take(NewRateMode(p, 9, 1<<14, 4), 10000), take(NewRateMode(p, 9, 1<<14, 4), 10000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
}

func TestRateModePanics(t *testing.T) {
	p, _ := ProfileByName("lbm")
	for _, f := range []func(){
		func() { NewRateMode(p, 1, 1<<16, 0) },
		func() { NewRateMode(p, 1, 256, 8) }, // 32-line partitions < one page
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

func TestRateModeIsAStream(t *testing.T) {
	p, _ := ProfileByName("milc")
	var s trace.Stream = NewRateMode(p, 1, 1<<14, 2)
	if take(s, 1)[0].Addr >= 1<<14 {
		t.Fatal("stream contract")
	}
}
