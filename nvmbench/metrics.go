package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"nvmwear"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// medianPass sums, over jobs, the median across passes of f(pass, job): the
// pass a run would time if every job took its median time, so a burst of
// host noise during one pass does not move it.
func medianPass(passes, jobs int, f func(pass, job int) float64) float64 {
	var total float64
	vs := make([]float64, passes)
	for i := 0; i < jobs; i++ {
		for k := range vs {
			vs[k] = f(k, i)
		}
		total += median(vs)
	}
	return total
}

// wallOf is the median-pass wall time of a set of passes.
func wallOf(passes []passResult) float64 {
	return medianPass(len(passes), len(passes[0].secs), func(k, i int) float64 { return passes[k].secs[i] })
}

// endToEnd computes the untraced run's metrics: the median pass's wall time
// and throughput, set-up time and peak memory.
func endToEnd(m *measurement, setup, rssMB float64) map[string]metricValue {
	wall := wallOf(m.untraced)
	return map[string]metricValue{
		"wall_s":         {wall, "s"},
		"sim_mreq_per_s": {float64(demand(m.untraced[0].outs)) / wall / 1e6, "Mreq/s"},
		"setup_s":        {setup, "s"},
		"peak_rss_mb":    {rssMB, "MB"},
	}
}

func demand(outs []outcome) uint64 {
	var n uint64
	for _, o := range outs {
		n += o.Demand
	}
	return n
}

// jobLayers is one job's host seconds in one traced pass, attributed to the
// program's layers. Together they cover the job's span minus its probes.
type jobLayers struct {
	build, gen, newSystem, wl, gini, sim, bench float64
}

// attribute splits each job of a traced pass into layers. A lifetime job's
// RunLifetime span minus its build, generation and Gini probes is the
// scheme-plus-device self time. A timing job's RunTiming span minus its
// stream build, its requests at the warm-up's generation cost and its
// scheme accesses at the warm-up's access cost is the timing model's self
// time. Whatever a job span holds beyond its children is the benchmark's
// own bookkeeping.
func attribute(jobs []job, p passResult) []jobLayers {
	byJob := make([]map[string]float64, len(jobs))
	for i := range byJob {
		byJob[i] = map[string]float64{}
	}
	for _, s := range p.spans {
		d := float64(s.End-s.Start) / 1e9
		if s.Parent < 0 {
			byJob[s.Job]["job"] += d
			continue
		}
		byJob[s.Job][s.Name] += d
		byJob[s.Job]["children"] += d
	}
	out := make([]jobLayers, len(jobs))
	for i, j := range jobs {
		d, o, l := byJob[i], p.outs[i], &out[i]
		l.newSystem = d["nvmwear.NewSystem"]
		l.bench = d["job"] - d["children"]
		if j.Timing {
			warm := float64(j.Warmup)
			estGen := d["workload.gen"] / warm * float64(o.Requests)
			estWL := d["wl.access"] / warm * float64(o.MemReqs)
			l.build = 2 * d["workload.build"]
			l.gen = d["workload.gen"] + estGen
			l.wl = d["wl.access"] + estWL
			l.sim = d["sim.RunTiming"] - d["workload.build"] - estGen - estWL
			continue
		}
		l.build = d["workload.build"]
		l.gen = d["workload.gen"]
		l.gini = d["metrics.gini"]
		l.wl = d["nvmwear.RunLifetime"] - l.build - l.gen - l.gini
	}
	return out
}

// perLayer computes the traced run's metrics: each layer's median-pass
// seconds, ns per request where the layer has a request count, the
// simulated counts (identical in every pass), and the tracing overhead.
func perLayer(jobs []job, m *measurement) map[string]metricValue {
	per := make([][]jobLayers, len(m.traced))
	for k, p := range m.traced {
		per[k] = attribute(jobs, p)
	}
	layer := func(f func(jobLayers) float64, keep func(job) bool) float64 {
		return medianPass(len(per), len(jobs), func(k, i int) float64 {
			if keep != nil && !keep(jobs[i]) {
				return 0
			}
			return f(per[k][i])
		})
	}
	outs := m.traced[0].outs
	var gen, dem, timingReqs uint64
	for _, o := range outs {
		gen += o.Gen + o.Requests
		dem += o.Demand
		timingReqs += o.Requests
	}
	seconds := func(v float64) metricValue { return metricValue{v, "s"} }
	perReq := func(v float64, n uint64) metricValue { return metricValue{nsPer(v, n), "ns/req"} }

	genS := layer(func(l jobLayers) float64 { return l.gen }, nil)
	wlS := layer(func(l jobLayers) float64 { return l.wl }, nil)
	simS := layer(func(l jobLayers) float64 { return l.sim }, nil)
	tracedWall, untracedWall := wallOf(m.traced), wallOf(m.untraced)
	out := map[string]metricValue{
		"workload.build_s":     seconds(layer(func(l jobLayers) float64 { return l.build }, nil)),
		"workload.gen_s":       seconds(genS),
		"workload.ns_per_req":  perReq(genS, gen),
		"nvmwear.new_system_s": seconds(layer(func(l jobLayers) float64 { return l.newSystem }, nil)),
		"wl.self_s":            seconds(wlS),
		"wl.ns_per_req":        perReq(wlS, dem),
		"metrics.gini_s":       seconds(layer(func(l jobLayers) float64 { return l.gini }, nil)),
		"sim.self_s":           seconds(simS),
		"sim.ns_per_req":       perReq(simS, timingReqs),
		"bench.self_s":         seconds(layer(func(l jobLayers) float64 { return l.bench }, nil)),
		"trace.wall_s":         seconds(tracedWall),
		"trace.overhead_s":     seconds(tracedWall - untracedWall),
	}
	for _, k := range nvmwear.Schemes() {
		var n uint64
		for i, j := range jobs {
			if j.Config.Scheme == k {
				n += outs[i].Demand
			}
		}
		s := layer(func(l jobLayers) float64 { return l.wl }, func(j job) bool { return j.Config.Scheme == k })
		out["wl."+string(k)+".ns_per_req"] = perReq(s, n)
	}

	var c struct {
		dataWrites, extra, merges, splits, devWrites, spares uint64
		hit                                                  float64
		tiered                                               int
	}
	for _, o := range outs {
		c.dataWrites += o.DataWrites
		c.extra += o.ExtraWrites
		c.merges += o.Merges
		c.splits += o.Splits
		c.devWrites += o.DeviceWrites
		c.spares += o.SparesUsed
		if o.Tiered {
			c.hit += o.HitRate
			c.tiered++
		}
	}
	count := func(v uint64) metricValue { return metricValue{float64(v), "count"} }
	out["wl.requests"] = count(dem)
	out["wl.write_overhead"] = metricValue{ratio(float64(c.extra), float64(c.dataWrites)), "ratio"}
	out["wl.cmt_hit_ratio"] = metricValue{ratio(c.hit, float64(c.tiered)), "ratio"}
	out["core.merges"] = count(c.merges)
	out["core.splits"] = count(c.splits)
	out["nvm.writes"] = count(c.devWrites)
	out["nvm.spares_used"] = count(c.spares)
	out["failed_frac"] = metricValue{failedFrac(m), "ratio"}
	return out
}

// failedFrac is failed jobs over attempted jobs, every pass counted.
func failedFrac(m *measurement) float64 { return float64(m.failed) / float64(m.attempted) }

func nsPer(seconds float64, n uint64) float64 { return ratio(seconds*1e9, float64(n)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report prints the human-readable table and, last, the JSON result line.
type report struct {
	Workload string
	Seed     uint64
	Jobs     int
	m        *measurement
}

func (r report) print(w io.Writer, metrics map[string]metricValue, traced bool) {
	m := r.m
	fmt.Fprintf(w, "nvmbench %s seed=%d trace=%v: %d jobs per pass, %d untraced and %d traced passes\n",
		r.Workload, r.Seed, traced, r.Jobs, len(m.untraced), len(m.traced))
	for _, e := range m.firstErrs {
		fmt.Fprintln(w, "FAILED:", e)
	}
	for _, passes := range [][]passResult{m.untraced, m.traced} {
		var walls []string
		for _, p := range passes {
			walls = append(walls, fmt.Sprintf("%.4f", p.wall))
		}
		if len(walls) > 0 {
			fmt.Fprintf(w, "pass wall_s: [%s]\n", strings.Join(walls, " "))
		}
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	wall := metrics["trace.wall_s"].Value
	fmt.Fprintf(w, "%-24s %14s  %-7s %s\n", "metric", "value", "unit", "share")
	for _, n := range names {
		v := metrics[n]
		share := ""
		if traced && v.Unit == "s" && !strings.HasPrefix(n, "trace.") {
			share = fmt.Sprintf("%5.1f%%", 100*ratio(v.Value, wall))
		}
		fmt.Fprintf(w, "%-24s %14.6g  %-7s %s\n", n, v.Value, v.Unit, share)
	}
	if _, ok := metrics["failed_frac"]; !ok {
		// End-to-end, but never in the JSON metrics: it is 0 on a good
		// run, and the JSON line carries it as failed over attempted.
		fmt.Fprintf(w, "%-24s %14.6g  %-7s\n", "failed_frac", failedFrac(m), "ratio")
	}
	if traced {
		u := wallOf(m.untraced)
		fmt.Fprintf(w, "tracing overhead: traced wall_s %.4f - untraced wall_s %.4f = %+.4f s (%+.1f%%)\n",
			wall, u, wall-u, 100*ratio(wall-u, u))
	}
	b, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{m.failed == 0, m.attempted, m.failed, metrics})
	fmt.Fprintln(w, string(b))
}
