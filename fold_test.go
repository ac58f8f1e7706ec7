package nvmwear

import (
	"fmt"
	"math"
	"testing"

	"nvmwear/internal/fault"
	"nvmwear/internal/lifetime"
	"nvmwear/internal/trace"
	"nvmwear/internal/workload"
)

// foldFaults is the fault configuration of the faults-on fold cases.
var foldFaults = fault.Config{
	TransientWriteRate: 0.002, StuckAtRate: 0.0005, ReadDisturbRate: 0.003,
	MetadataRate: 0.002, Seed: 11,
}

// foldCase is one fold-vs-unfold comparison: a scheme from the catalogue,
// faults on or off, a base workload (BPA, a 70%-write uniform mix or a
// SPEC profile) stretched into repeated runs by a run-length pattern, and
// a write budget.
type foldCase struct {
	scheme uint8  // index into Schemes(), modulo its length
	faults bool   // inject foldFaults
	work   uint8  // base workload, modulo 2+len(workload.SpecProfiles): BPA, uniform, then each SPEC profile
	seed   uint64 // workload seed
	budget uint32 // demand-write budget, modulo 200001, at least 1
	runs   []byte // request i repeats 1+4*runs[i%len(runs)] times; empty = as generated
}

// foldSeeds are the catalogue-wide cases: every scheme, faults off and on,
// on BPA, uniform and one SPEC profile (scheme i takes profile i), on the
// unmodified workloads with a 120k-write budget.
func foldSeeds() []foldCase {
	var cs []foldCase
	for i := range Schemes() {
		for _, faults := range []bool{false, true} {
			for _, work := range []int{0, 1, 2 + i} {
				cs = append(cs, foldCase{scheme: uint8(i), faults: faults, work: uint8(work), seed: 9, budget: 120_000})
			}
		}
	}
	return cs
}

// TestBatchScalarEquivalence runs the catalogue-wide FuzzFold cases under
// readable names: every registered scheme, with and without fault
// injection, on a run-heavy workload (BPA), a mixed read/write one
// (uniform) and a SPEC profile, which lifetime.Run reads ahead. Endurance is low enough that some combinations kill the
// device mid-run, so the death orderings of nvm.WriteRun/ReadRun are
// exercised too.
func TestBatchScalarEquivalence(t *testing.T) {
	for _, c := range foldSeeds() {
		cfg, w := c.system()
		_, wname, err := w.Build(cfg.Lines)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("%s/fault=%v/%s", cfg.Scheme, c.faults, wname), func(t *testing.T) {
			checkFold(t, c)
		})
	}
}

// FuzzFold pins the folded access path to the per-request one. The fold
// path is lifetime.Run, which hands whole request refills to AccessBatch,
// drawn on a second goroutine for a SPEC profile or a run-stretched
// stream; the unfold path calls Access once per request with a liveness
// check before each. wl.Stats, nvm.Stats and the per-line wear vector —
// which every lifetime.Result field is computed from — must match exactly.
// Repeated runs cross the schemes' trigger boundaries, and the write budget
// and device death land mid-run.
func FuzzFold(f *testing.F) {
	for _, c := range foldSeeds() {
		f.Add(c.scheme, c.faults, c.work, c.seed, c.budget, c.runs)
	}
	for i := range Schemes() {
		f.Add(uint8(i), i%2 == 1, uint8(i%3), uint64(i), uint32(31_337+i), []byte{200, 0, 63, 255, 7, 1})
	}
	f.Fuzz(func(t *testing.T, scheme uint8, faults bool, work uint8, seed uint64, budget uint32, runs []byte) {
		checkFold(t, foldCase{scheme, faults, work, seed, budget, runs})
	})
}

// system returns the case's system configuration and base workload.
func (c foldCase) system() (SystemConfig, WorkloadSpec) {
	schemes := Schemes()
	cfg := SystemConfig{
		Scheme:     schemes[int(c.scheme)%len(schemes)],
		Lines:      1 << 12,
		SpareLines: 48,
		Endurance:  60,
		Period:     8,
		Regions:    64,
		CMTEntries: 256,
		// Tight adaptation windows so SAWL actually cycles through merge
		// and split modes within the run.
		ObservationWindow: 20000,
		SettlingWindow:    10000,
		CheckEvery:        5000,
		Seed:              7,
	}
	if c.faults {
		cfg.Fault = foldFaults
	}
	switch work := int(c.work) % (2 + len(workload.SpecProfiles)); work {
	case 0:
		return cfg, WorkloadSpec{Kind: WorkloadBPA, Seed: c.seed}
	case 1:
		return cfg, WorkloadSpec{Kind: WorkloadUniform, WriteRatio: 0.7, Seed: c.seed}
	default:
		return cfg, WorkloadSpec{Kind: WorkloadSPEC, Name: workload.SpecProfiles[work-2].Name, Seed: c.seed}
	}
}

// checkFold runs the case down both paths on fresh systems and compares
// everything they expose.
func checkFold(t *testing.T, c foldCase) {
	t.Helper()
	maxWrites := max(1, uint64(c.budget)%200_001)
	fold, stream := c.build(t)
	if _, err := lifetime.Run([]lifetime.ShardRun{{Dev: fold.dev, Lv: fold.lv, Stream: stream}},
		lifetime.Options{MaxWrites: maxWrites}); err != nil {
		t.Fatal(err)
	}
	unfold, stream := c.build(t)
	reqs := trace.NewCursor(stream, math.MaxUint64)
	for writes := uint64(0); writes < maxWrites && unfold.dev.Alive(); {
		r, _ := reqs.Next()
		unfold.lv.Access(r.Op, r.Addr)
		if r.Op == trace.Write {
			writes++
		}
	}

	if a, b := fold.lv.Stats(), unfold.lv.Stats(); a != b {
		t.Errorf("scheme stats diverge:\n fold  : %+v\n unfold: %+v", a, b)
	}
	if a, b := fold.dev.Stats(), unfold.dev.Stats(); a != b {
		t.Errorf("device stats diverge:\n fold  : %+v\n unfold: %+v", a, b)
	}
	fw, uw := fold.dev.WearCounts(), unfold.dev.WearCounts()
	if len(fw) != len(uw) {
		t.Fatalf("wear vector length %d vs %d", len(fw), len(uw))
	}
	for i := range fw {
		if fw[i] != uw[i] {
			t.Fatalf("wear diverges at line %d: fold %d, unfold %d", i, fw[i], uw[i])
		}
	}
}

// build creates a fresh system and the case's request stream.
func (c foldCase) build(t *testing.T) (*System, trace.Stream) {
	t.Helper()
	cfg, w := c.system()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	stream, _, err := w.Build(cfg.Lines)
	if err != nil {
		t.Fatalf("Build workload: %v", err)
	}
	if len(c.runs) > 0 {
		stream = trace.ReadAhead(&runStream{base: trace.NewCursor(stream, math.MaxUint64), runs: c.runs})
	}
	return sys, stream
}

// runStream stretches a base stream into long repeated runs: the i-th base
// request is issued 1+4*runs[i%len(runs)] times in a row. Its fill
// touches only its own state, so the case reads it ahead (trace.ReadAhead)
// whatever its base.
type runStream struct {
	base *trace.Cursor
	runs []byte
	i    int
	cur  trace.Request
	left int
}

// NextBatch implements trace.Stream.
func (s *runStream) NextBatch(ops []trace.Op, addrs []uint64) int {
	for i := range ops {
		if s.left == 0 {
			s.cur, _ = s.base.Next()
			s.left = 1 + 4*int(s.runs[s.i%len(s.runs)])
			s.i++
		}
		s.left--
		ops[i], addrs[i] = s.cur.Op, s.cur.Addr
	}
	return len(ops)
}

// TestAccessBatchAllocatesNothing pins every scheme's steady-state access
// path to zero heap allocations: after warm-up, one 4096-request
// AccessBatch of BPA or a 70%-write uniform mix allocates nothing. The
// batches are generated beforehand, so only the scheme and device run
// under the count.
func TestAccessBatchAllocatesNothing(t *testing.T) {
	const batch, warm, runs = 4096, 32, 16
	for _, c := range foldSeeds() {
		if c.faults {
			continue
		}
		cfg, w := c.system()
		cfg.Endurance = 1 << 30
		_, wname, err := w.Build(cfg.Lines)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("%s/%s", cfg.Scheme, wname), func(t *testing.T) {
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			stream, _, err := w.Build(cfg.Lines)
			if err != nil {
				t.Fatal(err)
			}
			// AllocsPerRun calls its function once more than runs.
			n := warm + runs + 1
			ops, addrs := make([]trace.Op, n*batch), make([]uint64, n*batch)
			trace.FillBatch(stream, ops, addrs)
			next := 0
			access := func() {
				lo, hi := next*batch, (next+1)*batch
				sys.lv.AccessBatch(ops[lo:hi], addrs[lo:hi])
				next++
			}
			for next < warm {
				access()
			}
			if a := testing.AllocsPerRun(runs, access); a != 0 {
				t.Fatalf("%v allocations per %d-request AccessBatch", a, batch)
			}
		})
	}
}
