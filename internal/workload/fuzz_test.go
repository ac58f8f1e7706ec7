package workload

import (
	"fmt"
	"testing"

	"nvmwear/internal/rng"
	"nvmwear/internal/trace"
)

// oracleReqs is how many requests each oracle case compares: more than one
// BPA run at 5000 repeats and several of the phased profile's phases.
const oracleReqs = 1 << 14

// bpaLines is the address space of the oracle's BPA streams.
const bpaLines = 1 << 14

// phased is a profile that exercises every branch of the SPEC generator
// within oracleReqs: a hot set, a scan cursor, sequential runs, and a phase
// change every 1000 requests.
var phased = Profile{Name: "phased", Pages: 256, ZipfAlpha: 1.1, HotPages: 4, HotProb: 0.3,
	ScanProb: 0.1, SeqRun: 8, SeqProb: 0.05, WriteRatio: 0.4, PhaseEvery: 1000, PhaseJump: 0.3}

// rateCopies and rateLines shape the oracle's RateMode stream.
const rateCopies, rateLines = 4, 1 << 14

// streamKind is one kind of stream the oracle covers. bpaRepeats is set for
// the BPA kinds, which are also checked against a reference.
type streamKind struct {
	name       string
	new        func(seed uint64) trace.Stream
	bpaRepeats uint64
}

func bpaKind(repeats uint64) streamKind {
	return streamKind{
		name:       fmt.Sprintf("bpa/repeats=%d", repeats),
		new:        func(seed uint64) trace.Stream { return NewBPA(seed, bpaLines, repeats) },
		bpaRepeats: repeats,
	}
}

var (
	gcc, _     = ProfileByName("gcc")
	gromacs, _ = ProfileByName("gromacs") // a SPEC profile with a hot set
)

// streamKinds lists every stream kind in the repository.
var streamKinds = []streamKind{
	{name: "raa", new: func(seed uint64) trace.Stream { return NewRAA(seed % bpaLines) }},
	bpaKind(1), bpaKind(7), bpaKind(512), bpaKind(5000),
	{name: "uniform", new: func(seed uint64) trace.Stream { return NewUniform(seed, 1<<12, 0.7) }},
	{name: "sequential", new: func(seed uint64) trace.Stream { return NewSequential(seed, 1000, 0.5) }},
	{name: "spec/gcc", new: func(seed uint64) trace.Stream { return gcc.New(seed, 1<<12) }},
	{name: "spec/gromacs", new: func(seed uint64) trace.Stream { return gromacs.New(seed, 1<<12) }},
	{name: "spec/phased", new: func(seed uint64) trace.Stream { return phased.New(seed, 1<<14) }},
	{name: "ratemode", new: func(seed uint64) trace.Stream { return NewRateMode(gromacs, seed, rateLines, rateCopies) }},
	{name: "loop", new: func(seed uint64) trace.Stream { return trace.NewLoop(take(NewUniform(seed, 1<<10, 0.5), 37)) }},
}

// streamChunks is the chunk pattern TestStreamFill and FuzzStreamFill's
// seeds fill with: single requests, short fills and fills longer than a BPA
// run of 512, so runs straddle fill ends and a fill can hold many runs.
var streamChunks = []byte{0, 16, 12, 250, 255, 7, 1, 8}

// TestStreamFill runs FuzzStreamFill's seed cases under readable names.
func TestStreamFill(t *testing.T) {
	for k, kind := range streamKinds {
		t.Run(kind.name, func(t *testing.T) {
			checkStreamFill(t, uint8(k), 3, streamChunks)
		})
	}
}

// chunkLen maps a fuzz byte to a fill length from 1 to 3969: the low three
// bits pick a power of two, the high five a multiple of it.
func chunkLen(b byte) int { return 1 + int(b>>3)<<(b&7) }

// FuzzStreamFill is the oracle for the batch-only streams. For every
// stream kind, oracleReqs requests filled at once must equal the same
// requests filled in fuzzed chunk lengths, so no fill depends on where the
// previous one stopped. Two kinds are also checked against a reference
// built in the test: BPA draws each address with rng.New(seed).Uint64n and
// writes it exactly repeats times, and RateMode interleaves its separately
// built copies round-robin, each in its own partition. The phased profile
// covers the SPEC generator's phases, scans and runs; the Loop replays a
// captured trace.
func FuzzStreamFill(f *testing.F) {
	for k := range streamKinds {
		f.Add(uint8(k), uint64(3), streamChunks)
		f.Add(uint8(k), uint64(k)+11, []byte{})
	}
	f.Fuzz(checkStreamFill)
}

// checkStreamFill checks one stream kind at one seed and chunk pattern.
func checkStreamFill(t *testing.T, kind uint8, seed uint64, chunks []byte) {
	t.Helper()
	k := streamKinds[int(kind)%len(streamKinds)]
	whole := take(k.new(seed), oracleReqs)

	s := k.new(seed)
	ops, addrs := make([]trace.Op, oracleReqs), make([]uint64, oracleReqs)
	for at, c := 0, 0; at < oracleReqs; c++ {
		n := oracleReqs - at
		if len(chunks) > 0 {
			n = min(n, chunkLen(chunks[c%len(chunks)]))
		}
		if got := trace.FillBatch(s, ops[at:at+n], addrs[at:at+n]); got != n {
			t.Fatalf("%s: fill of %d returned %d", k.name, n, got)
		}
		at += n
	}
	for i, want := range whole {
		if got := (trace.Request{Op: ops[i], Addr: addrs[i]}); got != want {
			t.Fatalf("%s: request %d filled in chunks is %+v, filled at once %+v", k.name, i, got, want)
		}
	}

	switch {
	case k.bpaRepeats > 0:
		checkBPA(t, whole, seed, k.bpaRepeats)
	case k.name == "ratemode":
		checkRateMode(t, whole, seed)
	}
}

// checkBPA compares a BPA stream's requests with the attack's definition.
func checkBPA(t *testing.T, reqs []trace.Request, seed, repeats uint64) {
	t.Helper()
	src := rng.New(seed)
	var cur, left uint64
	for i, r := range reqs {
		if left == 0 {
			cur, left = src.Uint64n(bpaLines), repeats
		}
		left--
		if r != (trace.Request{Op: trace.Write, Addr: cur}) {
			t.Fatalf("bpa/repeats=%d: request %d is %+v, want a write to %d", repeats, i, r, cur)
		}
	}
}

// checkRateMode compares a RateMode stream's requests with an interleave of
// its copies, each built on its own with RateMode's per-copy seed.
func checkRateMode(t *testing.T, reqs []trace.Request, seed uint64) {
	t.Helper()
	part := uint64(rateLines / rateCopies)
	for c := 0; c < rateCopies; c++ {
		copyReqs := take(gromacs.New(seed+uint64(c)*0x9e3779b97f4a7c15, part), oracleReqs/rateCopies)
		for j, want := range copyReqs {
			want.Addr += uint64(c) * part
			if got := reqs[j*rateCopies+c]; got != want {
				t.Fatalf("ratemode: request %d is %+v, copy %d's request %d is %+v", j*rateCopies+c, got, c, j, want)
			}
		}
	}
}
