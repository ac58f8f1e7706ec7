package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"nvmwear"
	"nvmwear/internal/trace"
)

// span is one timed interval of a traced pass. Spans wrap calls into the
// program or batches of requests, never single requests: a time.Now pair
// costs more than the few ns Baseline and RBSG spend per folded request.
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Parent int    `json:"parent"` // index into the pass's spans; -1 for a job span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Probe marks a traced-only replay of work the program does inside a
	// public call the benchmark cannot enter (generation and the Gini
	// reduction inside RunLifetime, the counter read after RunTiming). It
	// is excluded from the traced wall time.
	Probe bool `json:"probe,omitempty"`
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced pass runs the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, job, parent int, probe bool) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent,
		Start: int64(time.Since(t.epoch)), Probe: probe})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = int64(time.Since(t.epoch))
	}
}

// outcome is what one job produced: the result digest and the simulated
// counts the metrics are computed from.
type outcome struct {
	Digest string
	Err    error

	Demand   uint64 // reads + writes the scheme served
	Gen      uint64 // requests the workload generated outside the program
	Requests uint64 // timing jobs: RunTiming requests
	MemReqs  uint64 // timing jobs: requests that reached the scheme inside RunTiming

	// Simulated counters for the per-layer metrics; timing jobs read them
	// only in traced passes.
	DataWrites, ExtraWrites uint64
	HitRate                 float64
	Tiered                  bool
	Merges, Splits          uint64
	DeviceWrites            uint64
	SparesUsed              uint64
}

const (
	fillBatch = 4096           // requests per FillBatch call: the lifetime engine's epoch buffer
	genChunk  = 16 * fillBatch // requests per probe generation span
	warmBlock = 4096           // requests per warm-up FillBatch call and Write/Read block
)

// runJob runs job id, recording spans when tr is non-nil. A panic in the
// program is reported as the job's error.
func runJob(j job, id int, tr *tracer) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = outcome{Err: fmt.Errorf("%s: panic: %v", j.Label, r)}
		}
	}()
	root := tr.begin("job", id, -1, false)
	defer tr.end(root)
	sp := tr.begin("nvmwear.NewSystem", id, root, false)
	sys, err := nvmwear.NewSystem(j.Config)
	tr.end(sp)
	if err != nil {
		return outcome{Err: fmt.Errorf("%s: %w", j.Label, err)}
	}
	if j.Timing {
		out, err = runTimingJob(j, sys, id, root, tr)
	} else {
		out, err = runLifetimeJob(j, sys, id, root, tr)
	}
	if err != nil {
		return outcome{Err: fmt.Errorf("%s: %w", j.Label, err)}
	}
	out.Tiered = j.Config.Scheme == nvmwear.NWL || j.Config.Scheme == nvmwear.SAWL
	return out
}

func runLifetimeJob(j job, sys *nvmwear.System, id, root int, tr *tracer) (outcome, error) {
	sp := tr.begin("nvmwear.RunLifetime", id, root, false)
	res, err := sys.RunLifetime(j.Spec, 0)
	tr.end(sp)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{Merges: sys.Merges(), Splits: sys.Splits()}
	res.Elapsed = 0 // host time, not a simulated result
	if out.Digest, err = digest(res, out.Merges, out.Splits, 0); err != nil {
		return outcome{}, err
	}
	if err := checkLifetime(res); err != nil {
		return outcome{}, err
	}
	ss, ds := res.SchemeStats, res.DeviceStats
	out.Demand = ss.DataWrites + ss.DataReads
	out.DataWrites = ss.DataWrites
	out.ExtraWrites = ss.SwapWrites + ss.MergeWrites + ss.TableWrites
	out.HitRate = res.HitRate
	out.DeviceWrites = ds.TotalWrites
	out.SparesUsed = res.SparesUsed
	if tr == nil {
		return out, nil
	}

	// Probes: replay the stream RunLifetime consumed, in the engine's batch
	// size, for the number of requests the scheme served; then the
	// end-of-run reduction, which Stats repeats exactly.
	sp = tr.begin("workload.build", id, root, true)
	stream, _, err := j.Spec.Build(j.Config.Lines)
	tr.end(sp)
	if err != nil {
		return outcome{}, err
	}
	out.Gen = out.Demand
	replay(stream, out.Demand, id, root, tr)
	sp = tr.begin("metrics.gini", id, root, true)
	st := sys.Stats()
	tr.end(sp)
	if st.WearGini != res.WearGini {
		return outcome{}, fmt.Errorf("Stats().WearGini %v != RunLifetime's %v", st.WearGini, res.WearGini)
	}
	return out, nil
}

// replay pulls n requests from stream in FillBatch calls of fillBatch,
// one probe span per genChunk requests.
func replay(stream trace.Stream, n uint64, id, root int, tr *tracer) {
	ops := make([]trace.Op, fillBatch)
	addrs := make([]uint64, fillBatch)
	for done := uint64(0); done < n; {
		sp := tr.begin("workload.gen", id, root, true)
		for end := min(done+genChunk, n); done < end; {
			k := min(end-done, fillBatch)
			done += uint64(trace.FillBatch(stream, ops[:k], addrs[:k]))
		}
		tr.end(sp)
	}
}

func runTimingJob(j job, sys *nvmwear.System, id, root int, tr *tracer) (outcome, error) {
	sp := tr.begin("workload.build", id, root, false)
	stream, _, err := j.Spec.Build(j.Config.Lines)
	tr.end(sp)
	if err != nil {
		return outcome{}, err
	}
	// Warm-up through the scalar path, in blocks: one FillBatch call, then
	// one Write/Read per request. The physical addresses returned are
	// folded into the digest.
	ops := make([]trace.Op, warmBlock)
	addrs := make([]uint64, warmBlock)
	var pmaHash uint64
	for done := uint64(0); done < j.Warmup; {
		k := min(j.Warmup-done, warmBlock)
		sp = tr.begin("workload.gen", id, root, false)
		trace.FillBatch(stream, ops[:k], addrs[:k])
		tr.end(sp)
		sp = tr.begin("wl.access", id, root, false)
		for i, a := range addrs[:k] {
			var pma uint64
			if ops[i] == trace.Write {
				pma = sys.Write(a)
			} else {
				pma = sys.Read(a)
			}
			pmaHash = (pmaHash ^ pma) * 0x100000001b3
		}
		tr.end(sp)
		done += k
	}
	sp = tr.begin("sim.RunTiming", id, root, false)
	res, err := sys.RunTiming(j.Spec, j.Reqs, 0)
	tr.end(sp)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{Merges: sys.Merges(), Splits: sys.Splits(), Requests: j.Reqs, MemReqs: res.MemRequests}
	if out.Digest, err = digest(res, out.Merges, out.Splits, pmaHash); err != nil {
		return outcome{}, err
	}
	// A request reaches the scheme at most twice: a miss and a writeback.
	if !(res.IPC > 0) || res.MemRequests == 0 || res.MemRequests > 2*j.Reqs {
		return outcome{}, fmt.Errorf("implausible timing result %+v", res)
	}
	out.Demand = j.Warmup + res.MemRequests
	out.Gen = j.Warmup
	if tr == nil {
		return out, nil
	}
	sp = tr.begin("nvmwear.Stats", id, root, true)
	st := sys.Stats()
	var wear uint64
	for _, w := range sys.WearCounts() {
		wear += uint64(w)
	}
	tr.end(sp)
	if st.DataWrites+st.DataReads != out.Demand {
		return outcome{}, fmt.Errorf("scheme served %d requests, benchmark issued %d", st.DataWrites+st.DataReads, out.Demand)
	}
	out.DataWrites = st.DataWrites
	out.ExtraWrites = st.SwapWrites + st.MergeWrites + st.TableWrites
	out.HitRate = st.CMTHitRate
	out.DeviceWrites = wear
	out.SparesUsed = st.SparesUsed
	return out, nil
}

// checkLifetime holds for every lifetime job at any seed: the device died,
// the result's served writes are the scheme's demand writes, and the device
// absorbed no write the scheme did not account for. (The killing write, or
// a swap cut short by death, leaves a few accounted writes unabsorbed.)
func checkLifetime(res nvmwear.LifetimeResult) error {
	ss, ds := res.SchemeStats, res.DeviceStats
	switch {
	case res.TimedOut || !ds.Dead:
		return fmt.Errorf("device survived the run: %v", res)
	case !(res.Normalized > 0 && res.Normalized <= 1):
		return fmt.Errorf("normalized lifetime %v outside (0, 1]", res.Normalized)
	case res.Served != ss.DataWrites:
		return fmt.Errorf("served %d != scheme data writes %d", res.Served, ss.DataWrites)
	case ds.TotalWrites > ss.DataWrites+ss.SwapWrites+ss.MergeWrites+ss.TableWrites:
		return fmt.Errorf("device wrote %d lines, scheme accounted only %d", ds.TotalWrites,
			ss.DataWrites+ss.SwapWrites+ss.MergeWrites+ss.TableWrites)
	}
	return nil
}

// digest hashes every simulated field of a result (host timings zeroed by
// the caller) together with the merge and split counts and, for timing
// jobs, the warm-up's physical-address hash.
func digest(res any, merges, splits, pmaHash uint64) (string, error) {
	b, err := json.Marshal(struct {
		Result         any
		Merges, Splits uint64
		PMAHash        uint64
	}{res, merges, splits, pmaHash})
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}
