package nvmwear

import (
	"fmt"

	"nvmwear/internal/core"
	"nvmwear/internal/nvm"
	"nvmwear/internal/wl"
	"nvmwear/internal/wl/mwsr"
	"nvmwear/internal/wl/pcms"
	"nvmwear/internal/wl/secref"
	"nvmwear/internal/wl/segswap"
	"nvmwear/internal/wl/softwear"
	"nvmwear/internal/wl/startgap"
	"nvmwear/internal/wl/wolfram"
)

// scheme is one entry of the scheme catalogue: everything the root package
// knows about a wear-leveling scheme. NewSystem, RecoverSystem, Schemes,
// PlanShards, shardSystemConfig and SchemeShardability all read it, so a
// new scheme is its package plus one entry (DESIGN.md §15).
type scheme struct {
	kind SchemeKind
	schemePkg
	extra func(SystemConfig) uint64 // device lines reserved past Lines; nil = none
	// unit is the partition unit in lines: leveling never moves data across
	// a unit boundary, so a shard must align to it.
	unit     func(SystemConfig) uint64
	unitName string // the unit, in fallback reasons
	minUnits uint64 // fewest units per bank: 2 where leveling needs a partner unit
	exact    bool   // sharded runs take the serial run's decisions; else bank-local
	// split adapts a shard's config to one of `banks` banks, or says why it
	// cannot; nil means nothing splits.
	split func(c *SystemConfig, banks uint64) error
}

// schemes is the catalogue in evaluation order. The related-work schemes
// (softwear, wolfram) follow the paper's original catalogue so the
// historical figure orderings — and their goldens — are unchanged.
var schemes = []scheme{
	{kind: Baseline, unit: oneLine, unitName: "line", minUnits: 1, exact: true,
		schemePkg: schemePkg{build: func(dev *nvm.Device, _ SystemConfig) wl.Leveler { return wl.NewIdentity(dev) }}},
	{kind: SegmentSwap, unit: regionLines, unitName: "segment", minUnits: 2,
		schemePkg: viaConfig(func(c SystemConfig) segswap.Config {
			return segswap.Config{Lines: c.Lines, SegmentLines: c.RegionLines, Period: c.Period}
		}, segswap.New)},
	{kind: StartGap, extra: oneLine, unit: oneLine, unitName: "line", minUnits: 1,
		schemePkg: viaConfig(func(c SystemConfig) startgap.Config {
			return startgap.Config{Lines: c.Lines, Regions: 1, Period: c.Period}
		}, startgap.New)},
	{kind: RBSG, extra: func(c SystemConfig) uint64 { return c.Regions },
		unit: linesPerRegion, unitName: "region", minUnits: 1, exact: true, split: splitRegions,
		schemePkg: viaConfig(func(c SystemConfig) startgap.Config {
			return startgap.Config{Lines: c.Lines, Regions: c.Regions, Period: c.Period}
		}, startgap.New)},
	// Two regions per bank keep TLSR's outer level; one would degenerate
	// to single-level Security Refresh.
	{kind: TLSR, unit: linesPerRegion, unitName: "region", minUnits: 2, split: splitRegions,
		schemePkg: viaConfig(func(c SystemConfig) secref.Config {
			return secref.Config{Lines: c.Lines, Regions: c.Regions,
				InnerPeriod: c.Period, OuterPeriod: 32, Seed: c.Seed} // Sec 2.2's outer period
		}, secref.New)},
	{kind: PCMS, unit: regionLines, unitName: "region", minUnits: 2,
		schemePkg: viaConfig(func(c SystemConfig) pcms.Config {
			return pcms.Config{Lines: c.Lines, RegionLines: c.RegionLines, Period: c.Period, Seed: c.Seed}
		}, pcms.New)},
	{kind: MWSR, unit: regionLines, unitName: "region", minUnits: 2,
		schemePkg: viaConfig(func(c SystemConfig) mwsr.Config {
			return mwsr.Config{Lines: c.Lines, RegionLines: c.RegionLines, Period: c.Period, Seed: c.Seed}
		}, mwsr.New)},
	tiered(NWL),
	tiered(SAWL),
	{kind: SoftWear, unit: regionLines, unitName: "page", minUnits: 2,
		schemePkg: viaConfig(func(c SystemConfig) softwear.Config {
			return softwear.Config{Lines: c.Lines, PageLines: c.RegionLines,
				SamplePeriod: 8, Trigger: c.Period} // charge every 8th demand write
		}, softwear.New)},
	{kind: WoLFRaM, unit: oneLine, unitName: "line", minUnits: 2,
		schemePkg: viaConfig(func(c SystemConfig) wolfram.Config {
			return wolfram.Config{Lines: c.Lines, Period: c.Period, Seed: c.Seed}
		}, wolfram.New)},
}

// schemePkg is how the catalogue reaches a scheme's package.
type schemePkg struct {
	// check rejects a configuration build would panic on; nil = none.
	check func(SystemConfig) error
	build func(*nvm.Device, SystemConfig) wl.Leveler
}

// viaConfig reaches a scheme package through its own Config: conf maps the
// system configuration onto it, check is that Config's Validate (the rule
// the package's New panics on), and build hands it to newL, the New.
func viaConfig[C interface{ Validate() error }, L wl.Leveler](conf func(SystemConfig) C, newL func(*nvm.Device, C) L) schemePkg {
	return schemePkg{
		check: func(c SystemConfig) error { return conf(c).Validate() },
		build: func(dev *nvm.Device, c SystemConfig) wl.Leveler { return newL(dev, conf(c)) },
	}
}

// tiered is the NWL or SAWL entry: one engine (internal/core), adaptive for
// SAWL. Each shard runs its own controller over its bank, with its own GTD
// and a 1/banks share of the CMT.
func tiered(kind SchemeKind) scheme {
	return scheme{
		kind:      kind,
		schemePkg: viaConfig(coreConfig, core.New),
		extra:     func(c SystemConfig) uint64 { return coreConfig(c).DeviceLines() - c.Lines },
		unit:      func(c SystemConfig) uint64 { return c.MaxGranLines }, unitName: "max region",
		minUnits: 1, exact: true,
		split: func(c *SystemConfig, banks uint64) error {
			if c.CMTEntries < int(banks) {
				return fmt.Errorf("%d CMT entries cannot split %d ways", c.CMTEntries, banks)
			}
			c.CMTEntries /= int(banks)
			return nil
		},
	}
}

// coreConfig is the tiered engine's configuration for an NWL or SAWL
// system, shared by NewSystem and RecoverSystem.
func coreConfig(cfg SystemConfig) core.Config {
	return core.Config{
		Lines:             cfg.Lines,
		InitGran:          cfg.InitGran,
		MaxGranLines:      cfg.MaxGranLines,
		Period:            cfg.Period,
		CMTEntries:        cfg.CMTEntries,
		Adaptive:          cfg.Scheme == SAWL,
		SubQueueThreshold: cfg.SubQueueThreshold,
		ObservationWindow: cfg.ObservationWindow,
		SettlingWindow:    cfg.SettlingWindow,
		CheckEvery:        cfg.CheckEvery,
		Seed:              cfg.Seed,
		Fault:             cfg.Fault,
		OnSample:          cfg.OnSample,
	}
}

func oneLine(SystemConfig) uint64 { return 1 }

func regionLines(c SystemConfig) uint64 { return c.RegionLines }

// linesPerRegion is 0 when Regions exceeds Lines; PlanShards refuses that.
func linesPerRegion(c SystemConfig) uint64 { return c.Lines / c.Regions }

func splitRegions(c *SystemConfig, banks uint64) error {
	c.Regions /= banks
	return nil
}

// lookupScheme returns kind's catalogue entry.
func lookupScheme(kind SchemeKind) (*scheme, error) {
	for i := range schemes {
		if schemes[i].kind == kind {
			return &schemes[i], nil
		}
	}
	return nil, fmt.Errorf("nvmwear: unknown scheme %q", kind)
}

// Schemes lists every scheme kind in evaluation order.
func Schemes() []SchemeKind {
	kinds := make([]SchemeKind, len(schemes))
	for i, e := range schemes {
		kinds[i] = e.kind
	}
	return kinds
}

// CheckScheme validates a scheme name before a run starts (wlsim -scheme
// and -devices, serve's spec): empty means "the experiment's default" and
// is always valid.
func CheckScheme(name string) error {
	if name == "" {
		return nil
	}
	_, err := lookupScheme(SchemeKind(name))
	return err
}
