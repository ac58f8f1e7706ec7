package serve

// Test experiments: registered into the real nvmwear registry (this test
// binary's copy of it), driving the real exec.Pool with the Scale's
// Context/Drain/Cache wiring — so the server tests exercise the same
// cancellation, checkpointing and panic paths production experiments use.
// Per-run behavior (gates, execution counters) is keyed by the run's seed,
// which the Spec controls, so concurrent tests never share a control block.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nvmwear"
	"nvmwear/internal/exec"
)

// ctrl scripts one run's jobs: each executing job announces itself on
// started, then blocks until release is closed. execs counts jobs that
// actually computed (cache hits never reach the job function).
type ctrl struct {
	started chan int
	release chan struct{}
	execs   atomic.Int64
}

var ctrls sync.Map // seed uint64 -> *ctrl

func newCtrl(seed uint64, n int) *ctrl {
	c := &ctrl{started: make(chan int, n), release: make(chan struct{})}
	ctrls.Store(seed, c)
	return c
}

// testPool builds the pool the way the root package's runJobs does, wired
// to the scale's cancellation and cache plumbing.
func testPool(name string, sc nvmwear.Scale) *exec.Pool {
	p := &exec.Pool{Workers: sc.Parallelism, BaseSeed: sc.Seed, Context: sc.Context, SoftContext: sc.Drain}
	if sc.Progress != nil {
		prog := sc.Progress
		p.OnDone = func(done, total int, _ time.Duration) { prog(done, total) }
	}
	if sc.Cache != nil {
		p.Store = sc.Cache
		p.Key = func(i int) string {
			return fmt.Sprintf("serve-test|%s|seed=%d|job=%d", name, sc.Seed, i)
		}
	}
	return p
}

// wrapCancel converts the pool's CanceledError into the registry contract:
// the completed prefix plus an error wrapping ErrInterrupted.
func wrapCancel(out []int, err error) (nvmwear.Result, error) {
	var ce *exec.CanceledError
	if errors.As(err, &ce) {
		done := 0
		for done < len(ce.Done) && ce.Done[done] {
			done++
		}
		return nvmwear.Result{Value: out[:done]}, fmt.Errorf("%w (%v)", nvmwear.ErrInterrupted, ce.Err)
	}
	return nvmwear.Result{Value: out}, err
}

// gatedRun is an n-job sweep whose jobs obey the seed's ctrl (if any).
func gatedRun(name string, n int, sc nvmwear.Scale) (nvmwear.Result, error) {
	out, err := exec.Map(testPool(name, sc), n, func(i int, seed uint64) (int, error) {
		if v, ok := ctrls.Load(sc.Seed); ok {
			c := v.(*ctrl)
			c.execs.Add(1)
			select {
			case c.started <- i:
			default:
			}
			<-c.release
		}
		return i * 7, nil
	})
	return wrapCancel(out, err)
}

func renderInts(r nvmwear.Result) ([]nvmwear.Table, []nvmwear.SVG) {
	vals, _ := r.Value.([]int)
	tab := nvmwear.Table{Title: "serve test", Columns: []string{"i", "v"}}
	for i, v := range vals {
		tab.Rows = append(tab.Rows, []string{fmt.Sprint(i), fmt.Sprint(v)})
	}
	return []nvmwear.Table{tab}, nil
}

func init() {
	nvmwear.Register(nvmwear.Experiment{
		Name: "serve-test-gated", Description: "serve test: 6 gated jobs", Figure: "-", Order: 900,
		Run:    func(sc nvmwear.Scale) (nvmwear.Result, error) { return gatedRun("serve-test-gated", 6, sc) },
		Render: renderInts,
	})
	nvmwear.Register(nvmwear.Experiment{
		Name: "serve-test-quick", Description: "serve test: 400 fast jobs", Figure: "-", Order: 901,
		Run:    func(sc nvmwear.Scale) (nvmwear.Result, error) { return gatedRun("serve-test-quick", 400, sc) },
		Render: renderInts,
	})
	nvmwear.Register(nvmwear.Experiment{
		Name: "serve-test-sleepy", Description: "serve test: 40 x 10ms jobs", Figure: "-", Order: 902,
		Run: func(sc nvmwear.Scale) (nvmwear.Result, error) {
			out, err := exec.Map(testPool("serve-test-sleepy", sc), 40, func(i int, seed uint64) (int, error) {
				time.Sleep(10 * time.Millisecond)
				return i, nil
			})
			return wrapCancel(out, err)
		},
		Render: renderInts,
	})
	nvmwear.Register(nvmwear.Experiment{
		Name: "serve-test-panic", Description: "serve test: every job panics", Figure: "-", Order: 903,
		Run: func(sc nvmwear.Scale) (nvmwear.Result, error) {
			out, err := exec.Map(testPool("serve-test-panic", sc), 3, func(i int, seed uint64) (int, error) {
				panic(fmt.Sprintf("boom from job %d", i))
			})
			return wrapCancel(out, err)
		},
		Render: renderInts,
	})
}
