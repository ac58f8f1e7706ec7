package nvmwear

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"
)

// This file holds the zero-fault regression guarantee: the fault-injection
// plumbing added across nvm/imt/core must leave fault-free simulations
// byte-identical to the pre-fault codebase. The testdata/*.golden tables
// were rendered from the tiny scale before any fault code existed; every
// run here — serial or parallel — must reproduce them exactly.

func TestZeroFaultGoldenTables(t *testing.T) {
	cases := []struct {
		name string
		file string
		run  func(Scale) ([]Series, error)
	}{
		{"fig3", "testdata/fig3_tiny.golden", RunFig3},
		{"fig4", "testdata/fig4_tiny.golden", RunFig4},
		{"fig15", "testdata/fig15_tiny.golden", RunFig15},
		{"fig16a", "testdata/fig16a_tiny.golden", func(sc Scale) ([]Series, error) {
			return RunFig16(sc, true)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(c.file)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range []int{1, 8} {
				got := renderFig(c.run(withParallelism(tinyScale(), j)))
				if got != string(want) {
					t.Errorf("-j%d table deviates from pre-fault golden %s:\n--- got ---\n%s--- want ---\n%s",
						j, c.file, got, want)
				}
			}
		})
	}
}

// TestFaultSweepDeterministic pins the new fault figure to the same
// contract as the paper figures: byte-identical tables across worker
// counts and across repeated same-seed runs (every fault draw comes from
// the per-job seeded substreams, never from shared state).
func TestFaultSweepDeterministic(t *testing.T) {
	render := func(j int) string {
		life, loss, _, err := RunFault(withParallelism(tinyScale(), j))
		if err != nil {
			t.Fatal(err)
		}
		return renderFig(life, nil) + renderFig(loss, nil)
	}
	first := render(1)
	if again := render(1); again != first {
		t.Fatalf("fault tables differ between repeated -j1 runs:\n%s\nvs\n%s", first, again)
	}
	if parallel := render(8); parallel != first {
		t.Fatalf("fault tables differ between -j1 and -j8:\n--- j1 ---\n%s--- j8 ---\n%s", first, parallel)
	}
}

// TestFaultSweepDegrades sanity-checks the sweep's shape: the highest
// injected fault rate must cost every scheme most of its lifetime and
// produce uncorrectable losses, while the zero-rate point reports none.
func TestFaultSweepDegrades(t *testing.T) {
	life, loss, _, err := RunFault(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	for si := range life {
		l := life[si]
		if len(l.Y) != len(FaultRates) {
			t.Fatalf("%s: %d lifetime points, want %d", l.Label, len(l.Y), len(FaultRates))
		}
		worst, clean := l.Y[len(l.Y)-1], l.Y[0]
		if worst >= clean/2 {
			t.Errorf("%s: lifetime %.1f%% at rate %v not below half the clean %.1f%%",
				l.Label, worst, FaultRates[len(FaultRates)-1], clean)
		}
		if loss[si].Y[0] != 0 {
			t.Errorf("%s: %.2f uncorrectable losses per 1M reads at rate 0", l.Label, loss[si].Y[0])
		}
		if loss[si].Y[len(loss[si].Y)-1] == 0 {
			t.Errorf("%s: no uncorrectable losses at the highest fault rate", l.Label)
		}
	}
}

// TestInterruptedSweepFlushesPrefix cancels a sweep mid-run through
// Scale.Context and checks the library-level contract wlsim builds on: the
// completed prefix of points comes back alongside an error wrapping
// ErrInterrupted, and it matches the same jobs of an uninterrupted run.
// Each case flattens its runner's output to one string per job, in job
// order.
func TestInterruptedSweepFlushesPrefix(t *testing.T) {
	cases := []struct {
		name string
		run  func(Scale) ([]string, error)
	}{
		{"fig3", func(sc Scale) ([]string, error) { return seriesPoints(RunFig3(sc)) }},
		{"sweep", func(sc Scale) ([]string, error) {
			return seriesPoints(RunSweep(sc, PCMS, SweepRegionLines, SweepPeriods))
		}},
		{"attack", func(sc Scale) ([]string, error) {
			scores, err := RunAttackScores(sc, AttackKinds)
			var out []string
			for i, s := range scores {
				out = append(out, fmt.Sprintf("%s=%+v", AttackKinds[i], s))
			}
			return out, err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sc := withParallelism(tinyScale(), 1)
			sc.Context = ctx
			fired := false
			sc.Progress = func(done, total int) {
				if !fired && done >= 2 {
					fired = true
					cancel()
				}
			}
			partial, err := c.run(sc)
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("err = %v, want ErrInterrupted", err)
			}
			full, err := c.run(withParallelism(tinyScale(), 1))
			if err != nil {
				t.Fatal(err)
			}
			// At least the two jobs that triggered cancellation flushed;
			// the full sweep must not have completed.
			if len(partial) < 2 || len(partial) >= len(full) {
				t.Fatalf("%d points flushed from an interrupted %d-job sweep", len(partial), len(full))
			}
			for i, p := range partial {
				if p != full[i] {
					t.Fatalf("job %d: partial %s != full %s", i, p, full[i])
				}
			}
		})
	}
}

// seriesPoints flattens a lifetime runner's series to one string per
// point. Every lifetime sweep declares each series' points contiguously,
// so series order is job order.
func seriesPoints(series []Series, err error) ([]string, error) {
	var out []string
	for _, s := range series {
		for i := range s.Y {
			out = append(out, fmt.Sprintf("%s@%v=%v", s.Label, s.X[i], s.Y[i]))
		}
	}
	return out, err
}
