package trace

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// mixed is a stream of pseudo-random reads and writes, a function of the
// request's index alone; drawn counts the requests it has produced.
type mixed struct{ drawn atomic.Uint64 }

// mixedAt is request i of a mixed stream.
func mixedAt(i uint64) Request {
	x := (i + 1) * 0x9e3779b97f4a7c15
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	return Request{Op: Op(x >> 63), Addr: x >> 20}
}

func (m *mixed) NextBatch(ops []Op, addrs []uint64) int {
	at := m.drawn.Load()
	for i := range ops {
		r := mixedAt(at + uint64(i))
		ops[i], addrs[i] = r.Op, r.Addr
	}
	m.drawn.Add(uint64(len(ops)))
	return len(ops)
}

// readChunks reads n requests from s in fills whose lengths cycle through
// chunks, checking each against want.
func readChunks(t *testing.T, s Stream, n int, chunks []int, want func(i uint64) Request) {
	t.Helper()
	ops, addrs := make([]Op, 3*aheadRefill), make([]uint64, 3*aheadRefill)
	for at, c := 0, 0; at < n; c++ {
		k := min(chunks[c%len(chunks)], n-at)
		if got := s.NextBatch(ops[:k], addrs[:k]); got != k {
			t.Fatalf("fill of %d at request %d returned %d", k, at, got)
		}
		for i := range k {
			if got, w := (Request{ops[i], addrs[i]}), want(uint64(at+i)); got != w {
				t.Fatalf("request %d is %+v, want %+v", at+i, got, w)
			}
		}
		at += k
	}
}

// aheadChunks cuts a read-ahead stream at single requests, within a
// refill, at and across refill ends, and over several refills at once.
var aheadChunks = []int{1, 7, aheadRefill - 8, aheadRefill, aheadRefill + 1, 3, 2*aheadRefill + 5, 4096 * 3}

// TestReadAheadYieldsTheStream checks that a read-ahead stream yields its
// source's requests in order however it is cut, across many turns of the
// ring, at the host's GOMAXPROCS and at 1, where the producer and the
// reader share one P.
func TestReadAheadYieldsTheStream(t *testing.T) {
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		prev := runtime.GOMAXPROCS(procs)
		readChunks(t, ReadAhead(&mixed{}), 40*aheadRefill+3, aheadChunks, mixedAt)
		runtime.GOMAXPROCS(prev)
	}
}

// waitFor waits up to 5 s for cond to hold, and reports whether it did.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// waitGoroutines waits for the goroutine count to fall back to n or below;
// a producer that has sent its last refill still counts until it returns.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	if !waitFor(func() bool { return runtime.NumGoroutine() <= n }) {
		t.Fatalf("%d goroutines, %d before the stream was read", runtime.NumGoroutine(), n)
	}
}

// TestReadAheadAbandoned checks that a stream its reader leaves alone
// draws exactly the ring beyond what was read and then leaves no
// goroutine, and that a later read starts the producer again and goes on
// where the reader stopped.
func TestReadAheadAbandoned(t *testing.T) {
	before := runtime.NumGoroutine()
	src := &mixed{}
	s := ReadAhead(src)
	readChunks(t, s, aheadRefill+10, []int{aheadRefill + 10}, mixedAt)
	// The reader holds its second refill, so the producer stops with it
	// and aheadDepth-1 more drawn.
	want := uint64((1 + aheadDepth) * aheadRefill)
	if !waitFor(func() bool { return src.drawn.Load() >= want }) {
		t.Fatalf("abandoned stream drew %d requests, want %d", src.drawn.Load(), want)
	}
	waitGoroutines(t, before)
	if got := src.drawn.Load(); got != want {
		t.Fatalf("abandoned stream drew %d requests, want %d", got, want)
	}
	readChunks(t, s, 10*aheadRefill, []int{999}, func(i uint64) Request { return mixedAt(aheadRefill + 10 + i) })
	waitGoroutines(t, before)
}

// thirdPanics is a stream of writes to 0, 1, 2, ... whose third fill
// panics.
type thirdPanics struct{ counter }

func (p *thirdPanics) NextBatch(ops []Op, addrs []uint64) int {
	if p.drawn == 2*aheadRefill {
		panic("third refill")
	}
	return p.counter.NextBatch(ops, addrs)
}

// TestReadAheadPanics checks that a panic in the source's third fill
// reaches the reader after the two refills drawn before it, and again on
// every later read, and that no producer is left behind.
func TestReadAheadPanics(t *testing.T) {
	before := runtime.NumGoroutine()
	s := ReadAhead(&thirdPanics{})
	readChunks(t, s, 2*aheadRefill, []int{1000}, func(i uint64) Request { return Request{Write, i} })
	for range 2 {
		got := func() (p any) {
			defer func() { p = recover() }()
			s.NextBatch(make([]Op, 1), make([]uint64, 1))
			return nil
		}()
		if got != "third refill" {
			t.Fatalf("the read past two refills recovered %v, want the fill's panic", got)
		}
	}
	waitGoroutines(t, before)
}

// short is a stream of n writes to 0, 1, 2, ..., then nothing.
type short struct {
	counter
	n uint64
}

func (s *short) NextBatch(ops []Op, addrs []uint64) int {
	k := min(uint64(len(ops)), s.n-s.drawn)
	return s.counter.NextBatch(ops[:k], addrs[:k])
}

// TestReadAheadEnds checks that a source's empty fill ends the read-ahead
// stream: the fill that reaches it returns the requests before it, and
// every later fill none.
func TestReadAheadEnds(t *testing.T) {
	const n = 2*aheadRefill + 100
	before := runtime.NumGoroutine()
	s := ReadAhead(&short{n: n})
	ops, addrs := make([]Op, 3000), make([]uint64, 3000)
	var got uint64
	for k := s.NextBatch(ops, addrs); k > 0; k = s.NextBatch(ops, addrs) {
		for i := range k {
			if r := (Request{ops[i], addrs[i]}); r != (Request{Write, got}) {
				t.Fatalf("request %d is %+v", got, r)
			}
			got++
		}
	}
	if got != n {
		t.Fatalf("read %d requests of %d", got, n)
	}
	if k := s.NextBatch(ops, addrs); k != 0 {
		t.Fatalf("a fill past the end returned %d", k)
	}
	waitGoroutines(t, before)
}
