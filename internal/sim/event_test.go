package sim

import (
	"testing"

	"nvmwear/internal/nvm"
	"nvmwear/internal/wl"
	"nvmwear/internal/wl/pcms"
	"nvmwear/internal/workload"
)

func mkIdentity(lines uint64) wl.Leveler {
	dev := nvm.New(nvm.Config{Lines: lines, SpareLines: 1 << 30, Endurance: 1 << 30})
	return wl.NewIdentity(dev)
}

func TestEventModelBasics(t *testing.T) {
	res := RunEvent(mkIdentity(1<<14), workload.NewUniform(1, 1<<14, 0.3), Config{Requests: 50000})
	if res.IPC <= 0 || res.IPC > 8 {
		t.Fatalf("IPC %v", res.IPC)
	}
	if res.MemRequests == 0 || res.ElapsedNs <= 0 {
		t.Fatalf("result: %+v", res)
	}
	if res.TransOverhead != 0 {
		t.Fatal("baseline translation overhead")
	}
}

// TestEventVsAnalyticCrossValidation: the fast analytic model must agree
// with the event-driven reference within a factor of 2 on IPC and preserve
// the relative ordering between a baseline and a wear-leveled system.
func TestEventVsAnalyticCrossValidation(t *testing.T) {
	mkStream := func() *workload.Uniform { return workload.NewUniform(7, 1<<14, 0.4) }
	cfg := Config{Requests: 100000, InstrPerMemReq: 20}

	baseA := Run(mkIdentity(1<<14), mkStream(), cfg)
	baseE := RunEvent(mkIdentity(1<<14), mkStream(), cfg)
	if ratio := baseA.IPC / baseE.IPC; ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("baseline IPC diverges: analytic %.3f vs event %.3f", baseA.IPC, baseE.IPC)
	}

	mkPCMS := func() wl.Leveler {
		dev := nvm.New(nvm.Config{Lines: 1 << 14, SpareLines: 1 << 30, Endurance: 1 << 30})
		return pcms.New(dev, pcms.Config{Lines: 1 << 14, RegionLines: 4, Period: 8, Seed: 1})
	}
	wlA := Run(mkPCMS(), mkStream(), cfg)
	wlE := RunEvent(mkPCMS(), mkStream(), cfg)
	if !(wlA.IPC < baseA.IPC) || !(wlE.IPC < baseE.IPC) {
		t.Fatalf("wear leveling not costly in both models: A %.3f/%.3f E %.3f/%.3f",
			wlA.IPC, baseA.IPC, wlE.IPC, baseE.IPC)
	}
	dA := wlA.Degradation(baseA)
	dE := wlE.Degradation(baseE)
	if dA <= 0 || dE <= 0 {
		t.Fatalf("degradations: analytic %.3f event %.3f", dA, dE)
	}
}

func TestEventModelReadPriority(t *testing.T) {
	// With FR-FCFS queues, a read-dominated stream should see latencies
	// near the raw device read latency despite concurrent writes.
	res := RunEvent(mkIdentity(1<<14), workload.NewUniform(3, 1<<14, 0.2), Config{
		Requests: 50000, InstrPerMemReq: 50,
	})
	if res.AvgReadLatNs > 4*50 {
		t.Fatalf("read latency %v despite read priority", res.AvgReadLatNs)
	}
}

func TestEventModelTerminates(t *testing.T) {
	// Saturating writes must still terminate (back-pressure retries, bank
	// drains).
	res := RunEvent(mkIdentity(1<<12), workload.NewUniform(5, 1<<12, 1.0), Config{
		Requests: 20000, InstrPerMemReq: 1,
	})
	if res.IPC <= 0 {
		t.Fatalf("IPC %v", res.IPC)
	}
	// Bandwidth-bound: 16 banks at 350ns per write.
	if res.IPC > 1 {
		t.Fatalf("write-saturated IPC %v suspiciously high", res.IPC)
	}
}
