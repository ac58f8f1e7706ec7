package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHarmonicMean(t *testing.T) {
	if hm := HarmonicMean([]float64{1, 1, 1}); math.Abs(hm-1) > 1e-12 {
		t.Fatalf("hmean of ones = %v", hm)
	}
	// Classic: hmean(40, 60) = 48.
	if hm := HarmonicMean([]float64{40, 60}); math.Abs(hm-48) > 1e-9 {
		t.Fatalf("hmean(40,60) = %v", hm)
	}
	if hm := HarmonicMean(nil); hm != 0 {
		t.Fatalf("hmean(nil) = %v", hm)
	}
	if hm := HarmonicMean([]float64{0, 0}); hm != 0 {
		t.Fatalf("hmean(zeros) = %v", hm)
	}
	// A zero entry is clamped to the smallest positive value, not dropped.
	hm := HarmonicMean([]float64{0, 10})
	if hm <= 0 || hm > 10 {
		t.Fatalf("hmean(0,10) = %v", hm)
	}
}

func TestHarmonicLEQArithmetic(t *testing.T) {
	err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) && x < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return HarmonicMean(xs) <= sum/float64(len(xs))*(1+1e-9)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestGiniUniformIsZero(t *testing.T) {
	xs := make([]uint32, 1000)
	for i := range xs {
		xs[i] = 7
	}
	if g := GiniUint32(xs); math.Abs(g) > 1e-9 {
		t.Fatalf("gini(uniform) = %v", g)
	}
}

func TestGiniConcentratedNearOne(t *testing.T) {
	xs := make([]uint32, 1000)
	xs[0] = 1000000
	g := GiniUint32(xs)
	if g < 0.99 {
		t.Fatalf("gini(concentrated) = %v", g)
	}
}

func TestGiniRange(t *testing.T) {
	err := quick.Check(func(xs []uint32) bool {
		g := GiniUint32(xs)
		return g >= -1e-9 && g <= 1+1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestGiniEdgeCases(t *testing.T) {
	if GiniUint32(nil) != 0 {
		t.Error("gini(nil) != 0")
	}
	if GiniUint32([]uint32{0, 0, 0}) != 0 {
		t.Error("gini(zeros) != 0")
	}
}

func TestQuantile(t *testing.T) {
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile(nil) != 0")
	}
	if q := Quantile([]float64{7}, 0.99); q != 7 {
		t.Errorf("Quantile(single, 0.99) = %v, want 7", q)
	}
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {-0.5, 1}, {1.5, 4},
		{0.5, 2.5},   // midpoint of 2 and 3
		{0.25, 1.75}, // interpolated between 1 and 2
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(xs, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 || xs[3] != 2 {
		t.Error("Quantile mutated its input")
	}
}

// record is the per-event reference RecordRun is checked against: one
// event, sliding the ring by a sub-bucket whenever the current one is full.
func record(w *HitWindow, hit bool) {
	if w.curCount == w.bucketCap {
		w.cur++
		if w.cur == len(w.hits) {
			w.cur = 0
		}
		w.hits[w.cur] = 0
		w.total[w.cur] = 0
		w.curCount = 0
	}
	w.curCount++
	w.total[w.cur]++
	if hit {
		w.hits[w.cur]++
	}
}

func TestHitWindowExact(t *testing.T) {
	w := NewHitWindow(100, 10)
	w.RecordRun(true, 50)
	w.RecordRun(false, 50)
	if r := w.Rate(); math.Abs(r-0.5) > 1e-9 {
		t.Fatalf("rate = %v", r)
	}
	var events uint64
	for _, n := range w.total {
		events += n
	}
	if events != 100 {
		t.Fatalf("events = %d", events)
	}
}

func TestHitWindowSlides(t *testing.T) {
	w := NewHitWindow(100, 10)
	w.RecordRun(false, 100)
	// Now fill with hits; old misses must age out.
	w.RecordRun(true, 200)
	if r := w.Rate(); r < 0.95 {
		t.Fatalf("stale misses not evicted: rate = %v", r)
	}
}

func TestHitWindowEmptyRateIsOne(t *testing.T) {
	w := NewHitWindow(10, 2)
	if w.Rate() != 1 {
		t.Fatalf("empty rate = %v", w.Rate())
	}
}

// TestRecordRunMatchesPerEvent checks that RecordRun(hit, n) leaves the
// ring exactly as n per-event records do, on runs that stop short of a
// sub-bucket, end on its boundary, span several, and wrap the ring.
func TestRecordRunMatchesPerEvent(t *testing.T) {
	type run struct {
		hit bool
		n   uint64
	}
	type tcase struct {
		name    string
		window  uint64
		buckets int
		runs    []run
	}
	cases := []tcase{
		{"within a bucket", 100, 10, []run{{true, 3}, {false, 4}, {true, 2}}},
		{"to the boundary", 100, 10, []run{{true, 7}, {false, 3}, {true, 10}}},
		{"across boundaries", 100, 10, []run{{false, 7}, {true, 25}, {false, 13}}},
		{"wraps the ring", 100, 10, []run{{true, 95}, {false, 30}, {true, 250}}},
		{"wraps many times", 64, 4, []run{{false, 1000}, {true, 17}, {false, 1}, {true, 333}}},
		{"one bucket", 8, 1, []run{{true, 5}, {false, 9}, {true, 8}, {false, 3}}},
		{"unit buckets", 4, 4, []run{{true, 1}, {false, 6}, {true, 2}}},
		{"empty run", 100, 10, []run{{true, 0}, {false, 12}, {true, 0}}},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		c := tcase{name: fmt.Sprintf("random %d", i), window: uint64(1 + rng.Intn(200)), buckets: 1 + rng.Intn(16)}
		for j := 0; j < 30; j++ {
			c.runs = append(c.runs, run{rng.Intn(2) == 0, uint64(rng.Intn(3 * int(c.window)))})
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		got, want := NewHitWindow(c.window, c.buckets), NewHitWindow(c.window, c.buckets)
		for k, r := range c.runs {
			got.RecordRun(r.hit, r.n)
			for e := uint64(0); e < r.n; e++ {
				record(want, r.hit)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: after run %d (%v x%d):\n got %+v\nwant %+v", c.name, k, r.hit, r.n, got, want)
			}
			if got.Rate() != want.Rate() {
				t.Fatalf("%s: after run %d: rate %v, want %v", c.name, k, got.Rate(), want.Rate())
			}
		}
	}
}

func TestHitWindowDegenerateSizes(t *testing.T) {
	w := NewHitWindow(0, 0) // must clamp, not panic
	w.RecordRun(true, 1)
	if w.Rate() != 1 {
		t.Fatalf("rate = %v", w.Rate())
	}
}
