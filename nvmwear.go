// Package nvmwear is a line-granular simulation library for NVM wear
// leveling, reproducing "An Efficient Wear-level Architecture using
// Self-adaptive Wear Leveling" (Huang, Hua, Zuo, Zhou, Huang — ICPP 2020).
//
// The library models an MLC NVM main memory with per-line endurance and
// spare lines under pluggable wear models (uniform, process variation,
// compression-aware — see nvm.WearModel), eleven wear-leveling schemes (the
// no-op Baseline, Segment Swapping, Start-Gap/RBSG, two-level Security
// Refresh, PCM-S, MWSR, the naive tiered NWL, the paper's SAWL, the
// software-only SoftWear and the decoder-level WoLFRaM), attack and
// SPEC-like workload generators, a lifetime measurement engine and a
// timing/IPC simulator.
//
// Quick start:
//
//	sys, _ := nvmwear.NewSystem(nvmwear.SystemConfig{
//		Scheme:    nvmwear.SAWL,
//		Lines:     1 << 20, // 64 MB of 64 B lines
//		Endurance: 10000,
//	})
//	res := sys.RunLifetime(nvmwear.WorkloadSpec{Kind: nvmwear.WorkloadBPA}, 0)
//	fmt.Printf("normalized lifetime: %.1f%%\n", 100*res.Normalized)
//
// The experiment runners (RunFig3 ... RunFig17, RunOverhead) regenerate
// every data-bearing table and figure of the paper; see EXPERIMENTS.md.
package nvmwear

import (
	"fmt"
	"os"

	"nvmwear/internal/analysis"
	"nvmwear/internal/core"
	"nvmwear/internal/fault"
	"nvmwear/internal/lifetime"
	"nvmwear/internal/nvm"
	"nvmwear/internal/sim"
	"nvmwear/internal/trace"
	"nvmwear/internal/wl"
	"nvmwear/internal/workload"
)

// SchemeKind selects a wear-leveling scheme.
type SchemeKind string

// The available schemes.
const (
	Baseline    SchemeKind = "baseline" // no wear leveling
	SegmentSwap SchemeKind = "segswap"  // table-based [Zhou+ ISCA'09]
	StartGap    SchemeKind = "startgap" // algebraic, single region [Qureshi+ MICRO'09]
	RBSG        SchemeKind = "rbsg"     // region-based start-gap
	TLSR        SchemeKind = "tlsr"     // two-level Security Refresh [Seong+ ISCA'10]
	PCMS        SchemeKind = "pcms"     // hybrid [Seznec WEST'10]
	MWSR        SchemeKind = "mwsr"     // hybrid multi-way [Yu & Du TC'14]
	NWL         SchemeKind = "nwl"      // naive tiered (fixed granularity)
	SAWL        SchemeKind = "sawl"     // the paper's contribution
	SoftWear    SchemeKind = "softwear" // software-only sampled page remapping [PAPERS.md]
	WoLFRaM     SchemeKind = "wolfram"  // programmable-address-decoder swaps [PAPERS.md]
)

// WearModels lists the selectable wear-model names, in flag-help order.
func WearModels() []string { return nvm.WearModelNames() }

// CheckWearModel validates a wear-model name before a run starts (the
// -wear flag, serve's config): empty means "keep the historical default"
// and is always valid.
func CheckWearModel(name string) error {
	if name == "" {
		return nil
	}
	if _, err := nvm.WearModelByName(name); err != nil {
		return fmt.Errorf("nvmwear: %w", err)
	}
	return nil
}

// SystemConfig describes a simulated NVM system: the device plus one
// wear-leveling scheme. Zero values select the paper's defaults.
type SystemConfig struct {
	Scheme SchemeKind

	// Device geometry (paper Table 1 scaled; see EXPERIMENTS.md).
	Lines      uint64  // logical data lines (power of two; default 1<<16)
	SpareLines uint64  // default Lines/64 (paper: 4M spares on 256M lines)
	Endurance  uint32  // per-cell write limit Wmax (default 10000)
	Variation  float64 // optional endurance process variation (CoV)

	// Wear selects the device's per-line wear model by name ("uniform",
	// "variation", "compress"; see nvm.WearModelByName). Empty keeps the
	// historical default: variation wear when Variation > 0, uniform
	// otherwise.
	Wear string

	// Shared scheme knobs.
	RegionLines uint64 // Q for segswap/pcms/mwsr, page size for softwear (default 4)
	Regions     uint64 // region count for rbsg/tlsr (default 1024)
	Period      uint64 // swapping period ψ (default 128)

	// Tiered-scheme knobs (NWL/SAWL).
	InitGran     uint64 // P (default 4; use 64 for NWL-64)
	MaxGranLines uint64 // SAWL region-size cap (default 256)
	CMTEntries   int    // mapping-cache capacity (default 32768 = 256 KB)

	// SAWL adaptation parameters (defaults = paper Sec 4.2; the merge and
	// split thresholds are the engine's fixed 90 % / 95 %).
	SubQueueThreshold float64
	ObservationWindow uint64
	SettlingWindow    uint64
	CheckEvery        uint64

	// TrackData stores a payload word per line so data integrity can be
	// verified (slower; tests use it, experiments usually do not).
	TrackData bool

	// Fault enables deterministic fault injection (internal/fault): device
	// write/read faults on the NVM and — for tiered schemes — metadata
	// corruption on the NVM-resident mapping table. The zero value disables
	// injection entirely and leaves every simulation byte-identical to a
	// fault-free build. When Fault.Seed is zero, Seed is used so a system's
	// fault stream follows its experiment seed.
	Fault fault.Config

	Seed uint64

	// OnSample receives periodic hit-rate/region-size snapshots from
	// tiered schemes (Figs 12-14).
	OnSample func(core.Sample)
}

func (c SystemConfig) withDefaults() SystemConfig {
	if c.Scheme == "" {
		c.Scheme = SAWL
	}
	if c.Lines == 0 {
		c.Lines = 1 << 16
	}
	if c.SpareLines == 0 {
		c.SpareLines = c.Lines / 64
	}
	if c.Endurance == 0 {
		c.Endurance = 10000
	}
	if c.RegionLines == 0 {
		c.RegionLines = 4
	}
	if c.Regions == 0 {
		c.Regions = 1024
	}
	if c.Period == 0 {
		c.Period = 128
	}
	if c.InitGran == 0 {
		c.InitGran = 4
	}
	if c.MaxGranLines == 0 {
		c.MaxGranLines = 256
	}
	if c.CMTEntries == 0 {
		c.CMTEntries = 32768
	}
	if c.Fault.Enabled() && c.Fault.Seed == 0 {
		c.Fault.Seed = c.Seed
	}
	return c
}

// System is a device bound to a wear-leveling scheme.
type System struct {
	cfg SystemConfig
	dev *nvm.Device
	lv  wl.Leveler
}

// NewSystem builds the device and scheme described by cfg.
func NewSystem(cfg SystemConfig) (*System, error) {
	cfg = cfg.withDefaults()
	e, err := lookupScheme(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	var wear nvm.WearModel // nil = the historical Variation-driven default
	if cfg.Wear != "" {
		if wear, err = nvm.WearModelByName(cfg.Wear); err != nil {
			return nil, fmt.Errorf("nvmwear: %w", err)
		}
	}
	if e.check != nil {
		if err := e.check(cfg); err != nil {
			return nil, fmt.Errorf("nvmwear: %s: %w", cfg.Scheme, err)
		}
	}
	extra := uint64(0)
	if e.extra != nil {
		extra = e.extra(cfg)
	}

	dev := nvm.New(nvm.Config{
		Lines:      cfg.Lines + extra,
		SpareLines: cfg.SpareLines,
		Endurance:  cfg.Endurance,
		Variation:  cfg.Variation,
		Wear:       wear,
		Seed:       cfg.Seed,
		TrackData:  cfg.TrackData,
		Fault:      cfg.Fault,
	})
	return &System{cfg: cfg, dev: dev, lv: e.build(dev, cfg)}, nil
}

// Config returns the (defaulted) configuration.
func (s *System) Config() SystemConfig { return s.cfg }

// SchemeName returns the scheme's display name.
func (s *System) SchemeName() string { return s.lv.Name() }

// Alive reports whether the device still has spares.
func (s *System) Alive() bool { return s.dev.Alive() }

// Read performs a read of a logical line, returning the physical line it
// was served from.
func (s *System) Read(addr uint64) uint64 { return s.lv.Access(trace.Read, addr) }

// Write performs a write of a logical line.
func (s *System) Write(addr uint64) uint64 { return s.lv.Access(trace.Write, addr) }

// Translate returns the current logical-to-physical mapping without side
// effects.
func (s *System) Translate(addr uint64) uint64 { return s.lv.Translate(addr) }

// Lines returns the logical address-space size.
func (s *System) Lines() uint64 { return s.cfg.Lines }

// Stats summarizes system activity.
type Stats struct {
	DataWrites    uint64
	DataReads     uint64
	SwapWrites    uint64
	MergeWrites   uint64
	TableWrites   uint64
	Remaps        uint64
	WriteOverhead float64
	CMTHitRate    float64
	MaxWear       uint32
	MeanWear      float64
	WearGini      float64
	SparesUsed    uint64
	Dead          bool
	OnChipBits    uint64

	// Fault-injection and recovery counters (all zero when Fault is
	// disabled).
	TransientWriteFaults uint64 // transient write failures observed
	WriteRetries         uint64 // extra programming pulses issued
	RetryEscalations     uint64 // retry budgets exhausted -> spare remap
	StuckLineFaults      uint64 // hard stuck-at faults -> spare remap
	CorrectedBits        uint64 // read-disturb bits fixed silently by ECC
	ECCRemaps            uint64 // lines scrubbed to a spare at the ECC limit
	Uncorrectable        uint64 // reads lost beyond the ECC budget
	MetaFaults           uint64 // mapping-table entries corrupted
	MetaRebuilds         uint64 // entries rebuilt from the inverse table
}

// Stats returns current counters.
func (s *System) Stats() Stats {
	st := s.lv.Stats()
	ds := s.dev.Stats()
	return Stats{
		DataWrites:    st.DataWrites,
		DataReads:     st.DataReads,
		SwapWrites:    st.SwapWrites,
		MergeWrites:   st.MergeWrites,
		TableWrites:   st.TableWrites,
		Remaps:        st.Remaps,
		WriteOverhead: st.WriteOverhead(),
		CMTHitRate:    st.HitRate(),
		MaxWear:       ds.MaxWear,
		MeanWear:      ds.MeanWear,
		WearGini:      wearGini(s.dev),
		SparesUsed:    ds.SparesUsed,
		Dead:          ds.Dead,
		OnChipBits:    s.lv.OverheadBits(),

		TransientWriteFaults: ds.TransientWriteFaults,
		WriteRetries:         ds.WriteRetries,
		RetryEscalations:     ds.RetryEscalations,
		StuckLineFaults:      ds.StuckLineFaults,
		CorrectedBits:        ds.CorrectedBits,
		ECCRemaps:            ds.ECCRemaps,
		Uncorrectable:        ds.Uncorrectable,
		MetaFaults:           st.MetaFaults,
		MetaRebuilds:         st.MetaRebuilds,
	}
}

// WorkloadKind selects a workload generator.
type WorkloadKind string

// The available workloads.
const (
	WorkloadRAA        WorkloadKind = "raa"
	WorkloadBPA        WorkloadKind = "bpa"
	WorkloadUniform    WorkloadKind = "uniform"
	WorkloadSequential WorkloadKind = "sequential"
	WorkloadSPEC       WorkloadKind = "spec" // set Name to a SPEC profile
	WorkloadFile       WorkloadKind = "file" // set Path to a binary trace; loops
)

// WorkloadSpec describes a workload instance.
type WorkloadSpec struct {
	Kind WorkloadKind
	Name string // SPEC profile name for WorkloadSPEC
	// BPA repeats per address (default 64); RAA target; uniform write ratio.
	Repeats    uint64
	Target     uint64
	WriteRatio float64
	// RateCopies > 0 runs a SPEC profile in the paper's rate mode: that
	// many independent copies over equal partitions of the address space
	// (Sec 4.1 uses 8, one per core).
	RateCopies int
	// Path names a binary trace file (cmd/tracegen output) for
	// WorkloadFile; the trace loops and addresses are folded into the
	// system's address space.
	Path string
	Seed uint64
}

// Build instantiates the workload over an address space of `lines`.
func (w WorkloadSpec) Build(lines uint64) (trace.Stream, string, error) {
	if lines == 0 {
		return nil, "", fmt.Errorf("nvmwear: workload %q over zero lines", w.Kind)
	}
	switch w.Kind {
	case WorkloadRAA:
		return workload.NewRAA(w.Target % lines), "RAA", nil
	case WorkloadBPA:
		rep := w.Repeats
		if rep == 0 {
			rep = 64
		}
		return workload.NewBPA(w.Seed, lines, rep), "BPA", nil
	case WorkloadUniform:
		wr := w.WriteRatio
		if wr == 0 {
			wr = 1.0
		}
		return workload.NewUniform(w.Seed, lines, wr), "uniform", nil
	case WorkloadSequential:
		wr := w.WriteRatio
		if wr == 0 {
			wr = 1.0
		}
		return workload.NewSequential(w.Seed, lines, wr), "sequential", nil
	case WorkloadSPEC:
		p, ok := workload.ProfileByName(w.Name)
		if !ok {
			return nil, "", fmt.Errorf("nvmwear: unknown SPEC profile %q", w.Name)
		}
		space := lines
		if w.RateCopies > 0 {
			space /= uint64(w.RateCopies)
		}
		if space < workload.PageLines {
			return nil, "", fmt.Errorf("nvmwear: SPEC profile %q: %d lines per copy, fewer than one %d-line page",
				p.Name, space, workload.PageLines)
		}
		if w.RateCopies > 0 {
			return workload.NewRateMode(p, w.Seed, lines, w.RateCopies), p.Name, nil
		}
		return p.New(w.Seed, lines), p.Name, nil
	case WorkloadFile:
		f, err := os.Open(w.Path)
		if err != nil {
			return nil, "", fmt.Errorf("nvmwear: trace file: %w", err)
		}
		defer f.Close()
		reqs, err := trace.ReadAll(f)
		if err != nil {
			return nil, "", fmt.Errorf("nvmwear: trace file %s: %w", w.Path, err)
		}
		if len(reqs) == 0 {
			return nil, "", fmt.Errorf("nvmwear: trace file %s is empty", w.Path)
		}
		for i := range reqs {
			reqs[i].Addr %= lines
		}
		return trace.NewLoop(reqs), "trace:" + w.Path, nil
	default:
		return nil, "", fmt.Errorf("nvmwear: unknown workload kind %q", w.Kind)
	}
}

// LifetimeResult re-exports the lifetime engine's result.
type LifetimeResult = lifetime.Result

// RunLifetime drives the workload until device failure (or maxWrites
// demand writes; 0 = 4x ideal writes) and reports the normalized lifetime.
func (s *System) RunLifetime(w WorkloadSpec, maxWrites uint64) (LifetimeResult, error) {
	sh, name, err := s.shard(w)
	if err != nil {
		return LifetimeResult{}, err
	}
	return lifetime.Run([]lifetime.ShardRun{sh}, lifetime.Options{MaxWrites: maxWrites, Workload: name})
}

// shard is the system fed by w as one shard of a lifetime run, with the
// workload's name.
func (s *System) shard(w WorkloadSpec) (lifetime.ShardRun, string, error) {
	stream, name, err := w.Build(s.cfg.Lines)
	return lifetime.ShardRun{Dev: s.dev, Lv: s.lv, Stream: stream}, name, err
}

// TimingResult re-exports the timing simulator's result.
type TimingResult = sim.Result

// RunTiming simulates `requests` memory requests through the timing model
// and reports IPC. instrPerMemReq <= 0 selects the per-benchmark default.
func (s *System) RunTiming(w WorkloadSpec, requests uint64, instrPerMemReq float64) (TimingResult, error) {
	stream, name, err := w.Build(s.cfg.Lines)
	if err != nil {
		return TimingResult{}, err
	}
	if instrPerMemReq <= 0 {
		instrPerMemReq = instrFor(name)
	}
	return sim.Run(s.lv, stream, sim.Config{
		Requests:       requests,
		InstrPerMemReq: instrPerMemReq,
	}), nil
}

// SpecBenchmarks returns the 14 SPEC CPU2006 profile names in the paper's
// evaluation order.
func SpecBenchmarks() []string { return workload.Names() }

// WearCounts exposes the device's per-line wear counters (shared slice —
// treat as read-only). Used by cmd/wearviz and analysis tooling; a result
// that must outlive the caller's exclusive ownership of the system clones
// it (slices.Clone).
func (s *System) WearCounts() []uint32 { return s.dev.WearCounts() }

// coreScheme returns the underlying tiered engine when the scheme is NWL
// or SAWL, or nil otherwise. Used by ablation benches and tests that need
// to drive structural operations directly.
func (s *System) coreScheme() *core.Scheme {
	if c, ok := s.lv.(*core.Scheme); ok {
		return c
	}
	return nil
}

// Merges returns the number of region-merge operations a tiered scheme has
// performed (0 for non-tiered schemes).
func (s *System) Merges() uint64 {
	if c := s.coreScheme(); c != nil {
		return c.Merges()
	}
	return 0
}

// Splits returns the number of region-split operations a tiered scheme has
// performed (0 for non-tiered schemes).
func (s *System) Splits() uint64 {
	if c := s.coreScheme(); c != nil {
		return c.Splits()
	}
	return 0
}

// Checkpoint serializes the tiered controller's battery-flushed metadata
// (GTD directory, IMT contents, counters, adaptation state) for crash
// recovery. Returns nil for non-tiered schemes.
func (s *System) Checkpoint() []byte {
	if c := s.coreScheme(); c != nil {
		return c.Checkpoint()
	}
	return nil
}

// RecoverSystem rebuilds a tiered system after a simulated power failure:
// the surviving device (with its wear state and NVM-resident tables) plus
// the last checkpoint. cfg must describe the same geometry as the original
// system. Only NWL/SAWL systems support recovery.
func RecoverSystem(old *System, checkpoint []byte) (*System, error) {
	if old.coreScheme() == nil {
		return nil, fmt.Errorf("nvmwear: scheme %q does not support recovery", old.cfg.Scheme)
	}
	sch, err := core.Recover(old.dev, coreConfig(old.cfg), checkpoint)
	if err != nil {
		return nil, err
	}
	return &System{cfg: old.cfg, dev: old.dev, lv: sch}, nil
}

// EnergyPJ returns the device's total dynamic access energy in picojoules
// (writes dominate on MLC NVM; wear-leveling write amplification shows up
// here directly).
func (s *System) EnergyPJ() float64 { return s.dev.EnergyPJ() }

// WearReport summarizes the device's per-line wear distribution.
func (s *System) WearReport() analysis.WearReport {
	return analysis.Wear(s.dev.WearCounts())
}

func init() {
	Register(Experiment{
		Name:        "project",
		Description: "wall-clock lifetime projection for a full-size device",
		Figure:      "Sec 2.2",
		Order:       240,
		Run: func(sc Scale) (Result, error) {
			p := sc.Project.withDefaults()
			return Result{ProjectLifetime(p.CapacityGB<<30, p.Endurance,
				p.BandwidthGBps*float64(1<<30), p.Normalized)}, nil
		},
		Render: func(r Result) ([]Table, []SVG) {
			p, _ := r.Value.(analysis.Projection)
			return []Table{{
				Title:   "Lifetime projection (Sec 2.2)",
				Columns: []string{"metric", "value"},
				Rows: [][]string{
					{"capacity", fmt.Sprintf("%d GB", p.CapacityBytes>>30)},
					{"endurance", fmt.Sprintf("%d", p.Endurance)},
					{"write bandwidth", fmt.Sprintf("%.2f GB/s", p.WriteBandwidth/float64(1<<30))},
					{"ideal lifetime", fmt.Sprintf("%.1f months", analysis.Months(p.Ideal()))},
					{"projected", fmt.Sprintf("%.1f months (%.1f%% of ideal)",
						analysis.Months(p.Projected()), 100*p.Normalized)},
				},
			}}, nil
		},
	})
}

// ProjectLifetime converts a measured normalized lifetime into a
// wall-clock projection for a full-size device — the paper's Sec 2.2
// arithmetic (64 GB at 10^5 endurance and 1 GBps writes = 2.5 ideal
// months).
func ProjectLifetime(capacityBytes, endurance uint64, writeBandwidthBytesPerSec, normalized float64) analysis.Projection {
	return analysis.Projection{
		CapacityBytes:  capacityBytes,
		LineBytes:      64,
		Endurance:      endurance,
		WriteBandwidth: writeBandwidthBytesPerSec,
		Normalized:     normalized,
	}
}
