package sim

import (
	"math"
	"testing"

	"nvmwear/internal/core"
	"nvmwear/internal/fault"
	"nvmwear/internal/nvm"
	"nvmwear/internal/trace"
	"nvmwear/internal/wl"
	"nvmwear/internal/wl/pcms"
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
