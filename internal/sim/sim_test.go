package sim

import (
	"math"
	"reflect"
	"testing"

	"nvmwear/internal/core"
	"nvmwear/internal/fault"
	"nvmwear/internal/nvm"
	"nvmwear/internal/trace"
	"nvmwear/internal/wl"
	"nvmwear/internal/wl/mwsr"
	"nvmwear/internal/wl/pcms"
	"nvmwear/internal/wl/secref"
	"nvmwear/internal/wl/segswap"
	"nvmwear/internal/wl/softwear"
	"nvmwear/internal/wl/startgap"
	"nvmwear/internal/wl/wolfram"
	"nvmwear/internal/workload"
)

func baselineRun(requests uint64, stream func() *workload.Uniform) Result {
	dev := nvm.New(nvm.Config{Lines: 1 << 16, SpareLines: 1 << 16, Endurance: 1 << 30})
	lv := wl.NewIdentity(dev)
	return Run(lv, stream(), Config{Requests: requests})
}

func TestBaselineIPCPositive(t *testing.T) {
	res := baselineRun(100000, func() *workload.Uniform {
		return workload.NewUniform(1, 1<<16, 0.3)
	})
	if res.IPC <= 0 || res.IPC > 8 {
		t.Fatalf("IPC = %v", res.IPC)
	}
	if res.ElapsedNs <= 0 || res.MemRequests == 0 {
		t.Fatalf("result: %+v", res)
	}
	if res.TransOverhead != 0 {
		t.Fatalf("baseline translation overhead %v", res.TransOverhead)
	}
}

func TestWearLevelingDegradesIPC(t *testing.T) {
	mk := func() *workload.Uniform { return workload.NewUniform(1, 1<<16, 0.3) }
	base := baselineRun(200000, mk)

	dev := nvm.New(nvm.Config{Lines: 1 << 16, SpareLines: 1 << 16, Endurance: 1 << 30})
	lv := pcms.New(dev, pcms.Config{Lines: 1 << 16, RegionLines: 4, Period: 8, Seed: 1})
	wlRes := Run(lv, mk(), Config{Requests: 200000})

	if wlRes.IPC >= base.IPC {
		t.Fatalf("wear leveling did not cost anything: %v >= %v", wlRes.IPC, base.IPC)
	}
	d := wlRes.Degradation(base)
	if d <= 0 || d >= 1 {
		t.Fatalf("degradation %v", d)
	}
	if wlRes.TransOverhead <= 0 {
		t.Fatal("no translation overhead recorded")
	}
}

func TestNoL2Passthrough(t *testing.T) {
	dev := nvm.New(nvm.Config{Lines: 1 << 12, SpareLines: 0, Endurance: 1 << 30})
	lv := wl.NewIdentity(dev)
	res := Run(lv, workload.NewUniform(5, 1<<12, 0.5), Config{Requests: 10000})
	if res.MemRequests != 10000 {
		t.Fatalf("passthrough issued %d mem requests", res.MemRequests)
	}
	if res.L2HitRate != 0 {
		t.Fatal("phantom L2")
	}
}

func TestMemoryBoundLowerIPCThanComputeBound(t *testing.T) {
	mk := func() *workload.Uniform { return workload.NewUniform(7, 1<<16, 0.4) }
	run := func(ipmr float64) float64 {
		dev := nvm.New(nvm.Config{Lines: 1 << 16, SpareLines: 0, Endurance: 1 << 30})
		return Run(wl.NewIdentity(dev), mk(), Config{Requests: 100000, InstrPerMemReq: ipmr}).IPC
	}
	slowIPC := run(10)
	fastIPC := run(90)
	if fastIPC <= slowIPC {
		t.Fatalf("compute-bound IPC %v not above memory-bound %v", fastIPC, slowIPC)
	}
}

func TestInstrPerMemReqTableComplete(t *testing.T) {
	for _, name := range workload.Names() {
		if _, ok := InstrPerMemReq[name]; !ok {
			t.Errorf("missing InstrPerMemReq for %s", name)
		}
	}
	if len(InstrPerMemReq) != 14 {
		t.Fatalf("%d entries", len(InstrPerMemReq))
	}
}

func TestDegradationEdgeCases(t *testing.T) {
	if (Result{IPC: 1}).Degradation(Result{}) != 0 {
		t.Fatal("zero baseline")
	}
	d := (Result{IPC: 0.9}).Degradation(Result{IPC: 1.0})
	if d < 0.099 || d > 0.101 {
		t.Fatalf("degradation %v", d)
	}
}

// maskRebuilds hides a scheme's metadata rebuilds from the timing models
// without changing what the scheme does.
type maskRebuilds struct{ wl.Leveler }

func (m maskRebuilds) Stats() wl.Stats {
	st := m.Leveler.Stats()
	st.MetaRebuilds = 0
	return st
}

func (m maskRebuilds) Counters() (hits, misses, rebuilds, swap, table, merge uint64) {
	hits, misses, _, swap, table, merge = m.Leveler.Counters()
	return hits, misses, 0, swap, table, merge
}

// TestModelsChargeRebuildLatency: both models stall the translation path
// RebuildLatNs per metadata-entry rebuild. A run with the rebuilds masked
// serves the same requests through an identically seeded scheme, so its
// total translation time is lower by exactly rebuilds x RebuildLatNs.
func TestModelsChargeRebuildLatency(t *testing.T) {
	mk := func() *core.Scheme {
		cfg := core.Config{Lines: 1024, CMTEntries: 16, Period: 8, Seed: 3,
			Fault: fault.Config{MetadataRate: 0.05, Seed: 3}}
		dev := nvm.New(nvm.Config{Lines: cfg.DeviceLines(), Endurance: 1 << 30})
		return core.New(dev, cfg)
	}
	models := []struct {
		name string
		run  func(wl.Leveler, trace.Stream, Config) Result
	}{{"Run", Run}, {"RunEvent", RunEvent}}
	for _, model := range models {
		t.Run(model.name, func(t *testing.T) {
			cfg := Config{Requests: 100000}
			charged, masked := mk(), mk()
			got := model.run(charged, workload.NewUniform(9, 1024, 0.5), cfg)
			base := model.run(maskRebuilds{masked}, workload.NewUniform(9, 1024, 0.5), cfg)
			rebuilds := charged.Stats().MetaRebuilds
			if rebuilds == 0 || masked.Stats().MetaRebuilds != rebuilds {
				t.Fatalf("rebuilds: charged run %d, masked run %d", rebuilds, masked.Stats().MetaRebuilds)
			}
			extra := (got.TransOverhead - base.TransOverhead) * float64(got.MemRequests)
			if want := float64(rebuilds) * RebuildLatNs; math.Abs(extra-want) > 1e-6*want {
				t.Fatalf("%d rebuilds added %.1f ns of translation, want %.1f", rebuilds, extra, want)
			}
		})
	}
}

// statsStep is meter.step's reference: it prices each request from the
// difference of the scheme's whole Stats before and after it, which the
// scheme's Counters must reproduce.
func statsStep(m *meter) func(trace.Op, uint64) access {
	prev := m.lv.Stats()
	return func(op trace.Op, addr uint64) access {
		pma := m.lv.Access(op, addr)
		st := m.lv.Stats()
		a := access{bank: int(pma % Banks)}
		switch {
		case m.baseline:
		case st.CMTHits != prev.CMTHits:
			a.transNs = TransHitNs
		case st.CMTMisses != prev.CMTMisses:
			a.transNs = TransMissNs
		default:
			a.transNs = OnChipTransNs
		}
		a.transNs += float64(st.MetaRebuilds-prev.MetaRebuilds) * RebuildLatNs
		a.swaps = st.SwapWrites - prev.SwapWrites + st.TableWrites - prev.TableWrites
		a.merges = st.MergeWrites - prev.MergeWrites
		prev = st
		m.reqs++
		m.transNs += a.transNs
		return a
	}
}

// oracleLines is the logical size of every system the meter oracle times.
const oracleLines = 1 << 12

// oracleCase is one system the meter oracle times: a fresh scheme on its
// own device per call of mk, the model setting it needs, and what its run
// must have exercised for the comparison to mean anything.
type oracleCase struct {
	name      string
	mk        func() wl.Leveler
	global    bool // Config.GlobalSwapBlocking
	exercised func(wl.Leveler) bool
}

// onDevice returns mk's scheme over a fresh device of oracleLines+extra
// lines.
func onDevice[L wl.Leveler](extra uint64, mk func(*nvm.Device) L) func() wl.Leveler {
	return func() wl.Leveler {
		return mk(nvm.New(nvm.Config{Lines: oracleLines + extra, Endurance: 1 << 30}))
	}
}

// tieredCase is an NWL or SAWL system of cfg over oracleLines lines, which
// must have hit and missed its CMT and, past that, passed check.
func tieredCase(name string, cfg core.Config, check func(*core.Scheme) bool) oracleCase {
	cfg.Lines, cfg.CMTEntries, cfg.Period, cfg.Seed = oracleLines, 64, 4, 5
	return oracleCase{
		name: name,
		mk: onDevice(cfg.DeviceLines()-oracleLines, func(dev *nvm.Device) *core.Scheme {
			return core.New(dev, cfg)
		}),
		exercised: func(lv wl.Leveler) bool {
			st := lv.Stats()
			return st.CMTHits > 0 && st.CMTMisses > 0 && st.TableWrites > 0 && check(lv.(*core.Scheme))
		},
	}
}

// exchanged reports whether a scheme's run caused blocking writes.
func exchanged(lv wl.Leveler) bool { return lv.Stats().SwapWrites > 0 }

// oracleCases are all 11 catalogue schemes, plus metadata faults on both
// tiered schemes (rebuild stalls), PCM-S's all-bank exchange stall
// (Fig 17's BWL) and a SAWL that merges (background writes).
func oracleCases() []oracleCase {
	const n = oracleLines
	always := func(*core.Scheme) bool { return true }
	faults := core.Config{Fault: fault.Config{MetadataRate: 0.05, Seed: 3}}
	rebuilt := func(s *core.Scheme) bool { return s.Stats().MetaRebuilds > 0 }
	pcmsCase := oracleCase{name: "PCM-S", exercised: exchanged,
		mk: onDevice(0, func(dev *nvm.Device) *pcms.Scheme {
			return pcms.New(dev, pcms.Config{Lines: n, RegionLines: 8, Period: 4, Seed: 5})
		})}
	pcmsGlobal := pcmsCase
	pcmsGlobal.name, pcmsGlobal.global = "PCM-S/global-swap-blocking", true
	return []oracleCase{
		{name: "Baseline", exercised: func(wl.Leveler) bool { return true },
			mk: onDevice(0, wl.NewIdentity)},
		{name: "SegmentSwap", exercised: exchanged,
			mk: onDevice(0, func(dev *nvm.Device) *segswap.Scheme {
				return segswap.New(dev, segswap.Config{Lines: n, SegmentLines: 8, Period: 4})
			})},
		{name: "StartGap", exercised: exchanged,
			mk: onDevice(1, func(dev *nvm.Device) *startgap.Scheme {
				return startgap.New(dev, startgap.Config{Lines: n, Regions: 1, Period: 4})
			})},
		{name: "RBSG", exercised: exchanged,
			mk: onDevice(16, func(dev *nvm.Device) *startgap.Scheme {
				return startgap.New(dev, startgap.Config{Lines: n, Regions: 16, Period: 4})
			})},
		{name: "TLSR", exercised: exchanged,
			mk: onDevice(0, func(dev *nvm.Device) *secref.Scheme {
				return secref.New(dev, secref.Config{Lines: n, Regions: 16, InnerPeriod: 4, OuterPeriod: 32, Seed: 5})
			})},
		pcmsCase,
		pcmsGlobal,
		{name: "MWSR", exercised: exchanged,
			mk: onDevice(0, func(dev *nvm.Device) *mwsr.Scheme {
				return mwsr.New(dev, mwsr.Config{Lines: n, RegionLines: 8, Period: 4, Seed: 5})
			})},
		tieredCase("NWL", core.Config{}, always),
		tieredCase("SAWL", core.Config{Adaptive: true}, always),
		tieredCase("NWL/metadata-faults", faults, rebuilt),
		tieredCase("SAWL/metadata-faults", core.Config{Adaptive: true, Fault: faults.Fault}, rebuilt),
		tieredCase("SAWL/merging", core.Config{Adaptive: true, CheckEvery: 1 << 10,
			ObservationWindow: 1 << 10, SettlingWindow: 1 << 10},
			func(s *core.Scheme) bool { return s.Stats().MergeWrites > 0 && s.Merges() > 0 }),
		{name: "SoftWear", exercised: exchanged,
			mk: onDevice(0, func(dev *nvm.Device) *softwear.Scheme {
				return softwear.New(dev, softwear.Config{Lines: n, PageLines: 8, SamplePeriod: 8, Trigger: 4})
			})},
		{name: "WoLFRaM", exercised: exchanged,
			mk: onDevice(0, func(dev *nvm.Device) *wolfram.Scheme {
				return wolfram.New(dev, wolfram.Config{Lines: n, Period: 4, Seed: 5})
			})},
	}
}

// sameBits reports whether two Results agree bit for bit, field by field.
func sameBits(a, b Result) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if fa.Interface() != fb.Interface() {
			return false
		}
	}
	return true
}

// TestMeterMatchesStatsDiff: both timing models, run with the meter's
// Counters step and with the Stats-diff reference over fresh identical
// systems and streams, give bit-equal Results for every scheme and for
// each setting that reaches a pricing path the others do not.
func TestMeterMatchesStatsDiff(t *testing.T) {
	profile, _ := workload.ProfileByName("gcc")
	stream := func() trace.Stream { return profile.New(11, oracleLines) }
	models := []struct {
		name string
		run  func(*meter, func(trace.Op, uint64) access, trace.Stream, Config) Result
	}{{"Run", run}, {"RunEvent", runEvent}}
	for _, c := range oracleCases() {
		for _, model := range models {
			t.Run(c.name+"/"+model.name, func(t *testing.T) {
				cfg := Config{Requests: 30000, InstrPerMemReq: 20, GlobalSwapBlocking: c.global}
				lv := c.mk()
				m := newMeter(lv)
				got := model.run(m, m.step, stream(), cfg)
				ref := newMeter(c.mk())
				want := model.run(ref, statsStep(ref), stream(), cfg)
				if !sameBits(got, want) {
					t.Fatalf("Counters step %+v\nStats-diff step %+v", got, want)
				}
				if !c.exercised(lv) {
					t.Fatalf("the run did not reach the case's pricing path: %v", lv.Stats())
				}
			})
		}
	}
}
