package workload

import (
	"fmt"
	"testing"

	"nvmwear/internal/trace"
)

// stepper is the per-request SPEC generator that Gen.NextBatch replaced,
// kept as its reference. step is the old generator step unchanged; only
// its request count, which NextBatch replaced by a countdown, lives here
// rather than in Gen.
type stepper struct {
	*Gen
	count uint64
}

// step produces the generator's next request.
func (g *stepper) step() trace.Request {
	g.count++
	if g.p.PhaseEvery != 0 && g.count%g.p.PhaseEvery == 0 {
		jump := uint64(float64(g.pages) * g.p.PhaseJump)
		if jump == 0 {
			jump = 1
		}
		g.phaseBase = (g.phaseBase + jump) & g.pageMask
		g.runLeft = 0
	}

	op := trace.Read
	if g.src.Bool(g.p.WriteRatio) {
		op = trace.Write
	}

	// Continue an in-progress sequential run.
	if g.runLeft > 0 {
		g.runLeft--
		g.runCur++
		if g.runCur >= g.Footprint() {
			g.runCur = 0
		}
		return trace.Request{Op: op, Addr: g.runCur}
	}

	// Global streaming scan.
	if g.p.ScanProb > 0 && g.src.Bool(g.p.ScanProb) {
		a := g.scanCur
		g.scanCur++
		if g.scanCur >= g.Footprint() {
			g.scanCur = 0
		}
		return trace.Request{Op: op, Addr: a}
	}

	// Locality-driven page pick.
	var page uint64
	if g.p.HotProb > 0 && g.src.Bool(g.p.HotProb) {
		page = g.permPage(g.hotZipf.Next())
	} else {
		page = g.permPage(g.zipf.Next())
	}
	addr := page*PageLines + g.src.Uint64n(PageLines)

	if g.p.SeqProb > 0 && g.p.SeqRun > 1 && g.src.Bool(g.p.SeqProb) {
		g.runLeft = g.p.SeqRun - 1
		g.runCur = addr
	}
	return trace.Request{Op: op, Addr: addr}
}

// rateStep is the reference RateMode: one step of each copy in turn.
type rateStep struct {
	copies []*stepper
	base   []uint64
	next   int
}

func newRateStep(p Profile, seed, lines uint64, copies int) *rateStep {
	r := NewRateMode(p, seed, lines, copies)
	ref := &rateStep{base: r.base}
	for _, g := range r.gens {
		ref.copies = append(ref.copies, &stepper{Gen: g})
	}
	return ref
}

func (r *rateStep) step() trace.Request {
	c := r.next
	r.next = (r.next + 1) % len(r.copies)
	req := r.copies[c].step()
	req.Addr += r.base[c]
	return req
}

// edgeProfiles put each of the generator's trials at its no-draw ends, and
// make every request a run start.
var edgeProfiles = []Profile{
	{Name: "reads", Pages: 64, ZipfAlpha: 1.1, HotPages: 4, HotProb: 0.3, ScanProb: 0.1, SeqRun: 8, SeqProb: 0.05, WriteRatio: 0},
	{Name: "writes", Pages: 64, ZipfAlpha: 1.1, HotPages: 4, HotProb: 0.3, ScanProb: 0.1, SeqRun: 8, SeqProb: 0.05, WriteRatio: 1},
	{Name: "scan-only", Pages: 64, ZipfAlpha: 1.1, ScanProb: 1, WriteRatio: 0.5},
	{Name: "hot-only", Pages: 64, ZipfAlpha: 1.1, HotPages: 4, HotProb: 1, SeqRun: 4, SeqProb: 0.2, WriteRatio: 0.5},
	{Name: "runs-of-one", Pages: 64, ZipfAlpha: 0.8, SeqRun: 1, SeqProb: 0.5, WriteRatio: 0.5, PhaseEvery: 1, PhaseJump: 0.5},
	{Name: "always-runs", Pages: 64, ZipfAlpha: 0.8, SeqRun: 3, SeqProb: 1, WriteRatio: 0.5, PhaseEvery: 7, PhaseJump: 0},
}

// stepChunks cuts the batch fill at single requests, short fills and the
// engines' 4096.
var stepChunks = []int{1, 5, 4096, 300, 2, 4096, 1000}

// checkAgainstStep fills n requests of s in stepChunks and compares each
// with the reference's next step.
func checkAgainstStep(t *testing.T, s trace.Stream, ref func() trace.Request, n int) {
	t.Helper()
	ops, addrs := make([]trace.Op, 4096), make([]uint64, 4096)
	for at, c := 0, 0; at < n; c++ {
		k := min(stepChunks[c%len(stepChunks)], n-at)
		trace.FillBatch(s, ops[:k], addrs[:k])
		for i := range k {
			if got, want := (trace.Request{Op: ops[i], Addr: addrs[i]}), ref(); got != want {
				t.Fatalf("request %d is %+v, the reference step gives %+v", at+i, got, want)
			}
		}
		at += k
	}
}

// TestNextBatchMatchesStep requires the batch fill to equal the reference
// step draw for draw: on the 14 profiles and the phased one at the line
// counts of the spec-lifetime and trace-ipc benchmarks and of Fig 17 at
// -scale small, on the edge profiles, and through RateMode. Each
// generator's source must then stand at the same draw as the reference's.
func TestNextBatchMatchesStep(t *testing.T) {
	const n = 1 << 14
	var cases []Profile
	cases = append(cases, SpecProfiles...)
	cases = append(cases, phased)
	for _, lines := range []uint64{1 << 10, 1 << 16, 1 << 22} {
		for _, p := range cases {
			t.Run(fmt.Sprintf("%s/lines=%d", p.Name, lines), func(t *testing.T) {
				g, ref := p.New(5, lines), &stepper{Gen: p.New(5, lines)}
				checkAgainstStep(t, g, ref.step, n)
				if g.src.Uint64() != ref.src.Uint64() {
					t.Fatal("the batch fill and the reference drew differently")
				}
			})
		}
	}
	for _, p := range edgeProfiles {
		t.Run("edge/"+p.Name, func(t *testing.T) {
			g, ref := p.New(9, 1<<12), &stepper{Gen: p.New(9, 1<<12)}
			checkAgainstStep(t, g, ref.step, n)
			if g.src.Uint64() != ref.src.Uint64() {
				t.Fatal("the batch fill and the reference drew differently")
			}
		})
	}
	for _, copies := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("ratemode/copies=%d", copies), func(t *testing.T) {
			checkAgainstStep(t, NewRateMode(gcc, 13, 1<<16, copies), newRateStep(gcc, 13, 1<<16, copies).step, n)
		})
	}
}
