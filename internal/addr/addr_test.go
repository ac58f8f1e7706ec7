package addr

import (
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	for _, v := range []uint64{1, 2, 4, 8, 1 << 20, 1 << 63} {
		if !IsPow2(v) {
			t.Errorf("IsPow2(%d) = false", v)
		}
	}
	for _, v := range []uint64{0, 3, 5, 6, 7, 9, 1<<20 + 1} {
		if IsPow2(v) {
			t.Errorf("IsPow2(%d) = true", v)
		}
	}
}

func TestLog2(t *testing.T) {
	cases := map[uint64]uint{1: 0, 2: 1, 3: 1, 4: 2, 1023: 9, 1024: 10, 1 << 40: 40}
	for v, want := range cases {
		if got := Log2(v); got != want {
			t.Errorf("Log2(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestLog2PanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Log2(0)
}

func TestPackUnpackRoundTrip(t *testing.T) {
	err := quick.Check(func(prn, key uint64, qBits uint8) bool {
		qShift := uint(qBits % 16)
		q := uint64(1) << qShift
		prn %= 1 << 30
		key &= q - 1
		d := Pack(prn, key, qShift)
		p, k := Unpack(d, qShift)
		return p == prn && k == key && d == prn*q+key
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestTranslateMatchesManualSteps(t *testing.T) {
	// Paper Fig 11 example arithmetic: Q=8, prn=5, key=3, lma=19.
	const q, qShift, prn, key = 8, 3, 5, 3
	d := Pack(prn, key, qShift)
	lma := uint64(19) // lrn=2, lao=3
	want := uint64(prn*q + (3 ^ key))
	if got := Translate(lma, d, qShift); got != want {
		t.Fatalf("Translate = %d, want %d", got, want)
	}
}

func TestTranslateBijectionPerRegion(t *testing.T) {
	// For a fixed (d, q), Translate restricted to one logical region must be
	// a bijection onto one physical region.
	const q, qShift = 32, 5
	d := Pack(7, 21, qShift)
	seen := make(map[uint64]bool)
	for lao := uint64(0); lao < q; lao++ {
		p := Translate(4*q+lao, d, qShift)
		if p/q != 7 {
			t.Fatalf("escaped physical region: %d", p)
		}
		if seen[p] {
			t.Fatalf("collision at %d", p)
		}
		seen[p] = true
	}
}
