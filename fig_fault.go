package nvmwear

import (
	"fmt"

	"nvmwear/internal/fault"
)

// This file implements the fault-injection sweep behind `wlsim fault`: how
// gracefully each scheme degrades as the device gets less reliable. It is
// not a figure from the paper — the paper assumes fault-free media — but
// exercises the recovery machinery (write retry, spare remap, ECC scrub,
// metadata rebuild) end to end under the same deterministic-parallel
// contract as the paper figures.

// faultResult is the fault experiment's payload: both series sets share
// the fault-rate X axis; Recovery carries the per-point fault/recovery
// counters (a completed prefix when the sweep was interrupted).
type faultResult struct {
	Life     []Series        // normalized lifetime, percent
	Loss     []Series        // uncorrectable read losses per 1M reads
	Recovery []FaultRecovery // one row per completed (scheme, rate) job
}

// FaultRecovery is one sweep point's fault and recovery accounting — the
// per-run counters internal/nvm and internal/fault maintain, surfaced in
// the fault table instead of staying internal-only.
type FaultRecovery struct {
	Scheme        string
	Rate          float64
	Transients    uint64 // transient write faults observed
	Retries       uint64 // extra programming pulses issued
	SpareRemaps   uint64 // fault-forced remaps (retry escalations + stuck-at)
	ECCScrubs     uint64 // lines scrubbed to a spare at the ECC limit
	MetaRebuilds  uint64 // mapping entries rebuilt after metadata corruption
	Uncorrectable uint64 // reads lost beyond the ECC budget
}

func init() {
	Register(Experiment{
		Name:        "fault",
		Description: "fault-injection sweep: lifetime, data loss and recovery counters vs fault rate",
		Figure:      "Sec 4.6",
		Order:       210,
		Run: func(sc Scale) (Result, error) {
			life, loss, rec, err := RunFault(sc)
			return Result{faultResult{Life: life, Loss: loss, Recovery: rec}}, err
		},
		Render: func(r Result) ([]Table, []SVG) {
			fr, _ := r.Value.(faultResult)
			// Linear X: the rate sweep starts at the fault-free control
			// point 0, which a log axis cannot place.
			gl := SVG{Name: "fault",
				Title: "Fault sweep: normalized lifetime (%) vs injected fault rate, uniform 50% writes",
				XName: "rate", YName: "value", Series: fr.Life,
			}
			gd := SVG{Name: "fault-loss",
				Title: "Fault sweep: uncorrectable losses per 1M reads vs injected fault rate",
				XName: "rate", YName: "value", Series: fr.Loss,
			}
			rec := Table{
				Title: "Fault recovery counters",
				Columns: []string{"scheme", "rate", "transients", "retries",
					"spare remaps", "ECC scrubs", "meta rebuilds", "uncorrectable"},
			}
			for _, p := range fr.Recovery {
				rec.Rows = append(rec.Rows, []string{
					p.Scheme, trimFloat(p.Rate),
					fmt.Sprintf("%d", p.Transients),
					fmt.Sprintf("%d", p.Retries),
					fmt.Sprintf("%d", p.SpareRemaps),
					fmt.Sprintf("%d", p.ECCScrubs),
					fmt.Sprintf("%d", p.MetaRebuilds),
					fmt.Sprintf("%d", p.Uncorrectable),
				})
			}
			return []Table{figTable(gl, "%.2f"), figTable(gd, "%.2f"), rec}, []SVG{gl, gd}
		},
	})
}

// FaultRates is the per-access fault-probability sweep the `fault`
// experiment evaluates. Rate 0 is the fault-free control point: it must
// reproduce the unfaulted simulation bit for bit (the injector performs no
// RNG draws when disabled).
var FaultRates = []float64{0, 1e-5, 1e-4, 1e-3, 1e-2}

// FaultSchemes are the schemes the fault sweep compares: the full
// registered catalogue, so every scheme's recovery machinery — including
// the NVM-resident metadata of the tiered schemes and the decoder-folded
// spare remaps of wolfram — degrades under the same injected rates.
var FaultSchemes = Schemes()

// faultFig is the sweep's cache identity. The "v2" marks the result type
// growing the recovery counters: the lifetime numbers are unchanged, but
// v1 cache entries would gob-decode with all counters zero, so they get
// their own namespace and age out instead.
func faultFig() string {
	return fmt.Sprintf("faultv2:%v:%v", FaultSchemes, FaultRates)
}

// RunFault sweeps fault rate x scheme under a uniform 50%-write workload
// until device failure. Each job's injected rate drives transient write
// faults and read disturbs directly, hard stuck-at faults at a tenth of the
// rate, and (tiered schemes only) metadata corruption at the full rate.
//
// Two series sets come back on the same X axis (fault rate): `life` is the
// normalized lifetime in percent, `loss` the uncorrectable read losses per
// million device reads. rec carries each completed point's fault/recovery
// counters in job order. An interrupted sweep returns the completed points
// plus an error wrapping ErrInterrupted.
func RunFault(sc Scale) (life, loss []Series, rec []FaultRecovery, err error) {
	schemes := FaultSchemes
	rates := FaultRates
	// Exported fields: results round-trip through the gob result cache.
	// The scheme and rate lists are sweep parameters outside Scale, so
	// they are folded into the cache identity.
	fig := faultFig()
	type point struct {
		Life     float64
		LossPPM  float64
		Recovery FaultRecovery
	}
	sh := newSharder(sc)
	res, err := runJobs(sc, fig, true, len(schemes)*len(rates), jobOpts[point]{}, func(i int, seed uint64) (point, error) {
		scheme, rate := schemes[i/len(rates)], rates[i%len(rates)]
		cfg := SystemConfig{
			Scheme: scheme, Lines: sc.AttackLines, SpareLines: sc.attackSpares(),
			Endurance: sc.AttackEndurance, Period: 8,
			RegionLines: 64, InitGran: 4, CMTEntries: sc.CMTEntries,
			Seed: seed,
			Fault: fault.Config{
				TransientWriteRate: rate,
				StuckAtRate:        rate / 10,
				ReadDisturbRate:    rate,
				MetadataRate:       rate,
				// The sharder derives per-bank fault substreams from
				// Fault.Seed; anchor it to the job seed explicitly (serial
				// runs default it to Seed, see SystemConfig.Fault).
				Seed: seed,
			},
		}
		r, err := sh.run(cfg, WorkloadSpec{
			Kind: WorkloadUniform, WriteRatio: 0.5, Seed: seed,
		}, 0)
		if err != nil {
			return point{}, err
		}
		ds, ws := r.DeviceStats, r.SchemeStats
		p := point{Life: 100 * r.Normalized, Recovery: FaultRecovery{
			Scheme:        string(scheme),
			Rate:          rate,
			Transients:    ds.TransientWriteFaults,
			Retries:       ds.WriteRetries,
			SpareRemaps:   ds.RetryEscalations + ds.StuckLineFaults,
			ECCScrubs:     ds.ECCRemaps,
			MetaRebuilds:  ws.MetaRebuilds,
			Uncorrectable: ds.Uncorrectable,
		}}
		if r.Reads > 0 {
			p.LossPPM = float64(r.Uncorrectable) / float64(r.Reads) * 1e6
		}
		return p, nil
	})
	life = make([]Series, len(schemes))
	loss = make([]Series, len(schemes))
	for si, scheme := range schemes {
		life[si].Label = string(scheme)
		loss[si].Label = string(scheme)
	}
	for i, p := range res {
		si, ri := i/len(rates), i%len(rates)
		life[si].Append(rates[ri], p.Life)
		loss[si].Append(rates[ri], p.LossPPM)
		rec = append(rec, p.Recovery)
	}
	return life, loss, rec, err
}
