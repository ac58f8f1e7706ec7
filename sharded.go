package nvmwear

import (
	"context"
	"fmt"
	"sync"

	"nvmwear/internal/lifetime"
	"nvmwear/internal/nvm"
	"nvmwear/internal/rng"
)

// MaxShards caps how finely a single lifetime run decomposes — the paper's
// 32 x 2 GB bank geometry. Requesting more shards than banks would split
// below the hardware's natural parallel cut.
const MaxShards = 32

// ShardPlan is the outcome of gating a run for sharded execution. Shards is
// the shard count the run will actually use; when it is 1 despite a larger
// request, Reason says why the run fell back to the serial path
// (indivisible geometry, workload with global state).
type ShardPlan struct {
	Shards int
	Reason string
}

// PlanShards decides whether the (cfg, w) run can shard `requested` ways.
// The rule: a shard must be a closed system. One generic rule checks that
// against the scheme's catalogue entry (schemes.go): the lines must divide
// into the shards and the spares must cover them; each shard must align to
// the scheme's partition unit and keep at least its minimum units per
// bank; and the scheme's per-bank config split (RBSG/TLSR regions, the
// tiered CMT) must succeed. What a shard then simulates depends on the
// entry's decomposition model (DESIGN.md §15): exact schemes (Baseline, RBSG,
// NWL/SAWL) shard without changing what is simulated; bank-local schemes
// shard by confining their device-wide state — coldest-segment scan, outer
// refresh, the gap, random exchange partners — to each bank, an explicit
// modeling change pinned within tolerance by the sharded test suite.
// Workloads with global state (RAA's single hot address, file traces with
// one replay order) always fall back to serial with a reason rather than
// silently simulating something else.
func PlanShards(cfg SystemConfig, w WorkloadSpec, requested int) ShardPlan {
	if requested <= 1 {
		return ShardPlan{Shards: 1}
	}
	if requested > MaxShards {
		requested = MaxShards
	}
	cfg = cfg.withDefaults()
	s := uint64(requested)

	serial := func(why string) ShardPlan { return ShardPlan{Shards: 1, Reason: why} }
	switch w.Kind {
	case WorkloadRAA:
		return serial("RAA hammers a single global address; splitting it changes the attack")
	case WorkloadFile:
		return serial("a file trace has one global replay order")
	}
	if cfg.Lines%s != 0 {
		return serial(fmt.Sprintf("%d lines do not divide into %d shards", cfg.Lines, s))
	}
	if cfg.SpareLines < s {
		return serial(fmt.Sprintf("%d spare lines cannot cover %d shards", cfg.SpareLines, s))
	}
	e, err := lookupScheme(cfg.Scheme)
	if err != nil {
		return serial(err.Error())
	}
	perShard, unit := cfg.Lines/s, e.unit(cfg)
	switch {
	case unit == 0:
		return serial(fmt.Sprintf("%s has a 0-line %s", cfg.Scheme, e.unitName))
	case perShard%unit != 0:
		return serial(fmt.Sprintf("shard of %d lines does not align to the %d-line %s", perShard, unit, e.unitName))
	case perShard/unit < e.minUnits:
		return serial(fmt.Sprintf("a %d-%s bank needs at least %d %ss", perShard/unit, e.unitName, e.minUnits, e.unitName))
	}
	if e.split != nil {
		if err := e.split(&cfg, s); err != nil {
			return serial(err.Error())
		}
	}
	return ShardPlan{Shards: requested}
}

// Shard decomposition models, as reported by SchemeShardability and
// rendered by `wlsim list`: "exact" means a sharded run takes the same
// leveling decisions as a serial one; "bank-local" means the scheme's
// device-wide state is confined to each bank — a documented modeling
// change (DESIGN.md §15) pinned within tolerance, not byte-identical to
// serial. The scheme's catalogue entry says which.
const (
	ShardModelExact     = "exact"
	ShardModelBankLocal = "bank-local"
)

// SchemeShardability reports whether a scheme's lifetime runs can
// decompose across the bank geometry at all, which decomposition model they
// use (ShardModelExact or ShardModelBankLocal), and PlanShards' reason when
// they cannot shard. It plans the scheme on a representative divisible
// geometry (default-sized device, uniform workload), so a concrete run can
// still fall back serial when its own geometry does not divide. `wlsim
// list` renders this per scheme.
func SchemeShardability(kind SchemeKind) (ok bool, model, reason string) {
	probe := SystemConfig{Scheme: kind, Lines: 1 << 15}
	plan := PlanShards(probe, WorkloadSpec{Kind: WorkloadUniform, WriteRatio: 0.5}, MaxShards)
	if plan.Shards <= 1 {
		return false, "", plan.Reason
	}
	if e, _ := lookupScheme(kind); e.exact {
		return true, ShardModelExact, ""
	}
	return true, ShardModelBankLocal, ""
}

// shardSystemConfig derives shard `bank`'s system configuration from the
// defaulted whole-device configuration: a 1/banks slice of lines, a
// ShareLines share of the spare pool, the scheme's own per-bank split
// (regions, CMT capacity), and seed substreams (device variation and fault
// injection) so shards never share randomness. Adaptation windows and
// periods are deliberately NOT scaled: each shard models one bank's
// controller keeping the paper's time constants, not a 1/banks-speed
// miniature.
func shardSystemConfig(cfg SystemConfig, bank, banks uint64) SystemConfig {
	sub := cfg
	sub.Lines = cfg.Lines / banks
	sub.SpareLines = nvm.ShareLines(cfg.SpareLines, bank, banks)
	sub.Seed = rng.SeedStream(cfg.Seed, bank)
	// PlanShards has already refused unknown schemes and configs that do
	// not split, so the split cannot fail here.
	if e, err := lookupScheme(cfg.Scheme); err == nil && e.split != nil {
		_ = e.split(&sub, banks)
	}
	if cfg.Fault.Enabled() {
		sub.Fault.Seed = rng.SeedStream(cfg.Fault.Seed, bank)
	}
	return sub
}

// ShardedRunOptions controls RunShardedLifetime.
type ShardedRunOptions struct {
	// Shards is the requested shard count; <= 1 runs serial, values above
	// MaxShards are capped. The plan may still fall back to 1 (see
	// PlanShards).
	Shards int
	// Context, when non-nil, cancels a sharded run.
	Context context.Context
}

// RunShardedLifetime is RunLifetime decomposed across the bank geometry:
// it gates the run with PlanShards, builds one System and workload
// substream per shard and hands them to lifetime.Run, which runs several
// shards on the exec pool and merges the results. A serial plan is the one
// shard RunLifetime runs: cfg and w unchanged, seeds included. The returned plan
// tells the caller what actually ran — callers surface plan.Reason so a
// serial fallback is never silent.
//
// A fixed (cfg, w, shards) triple is fully deterministic: shard b's device,
// scheme, fault and workload streams are all derived with
// rng.SeedStream(seed, b), so neither the parallelism level nor scheduling
// affects the merged result.
func RunShardedLifetime(cfg SystemConfig, w WorkloadSpec, maxWrites uint64, opts ShardedRunOptions) (LifetimeResult, ShardPlan, error) {
	plan := PlanShards(cfg, w, opts.Shards)
	banks := uint64(plan.Shards)
	dcfg := cfg.withDefaults()
	shards := make([]lifetime.ShardRun, banks)
	wname := ""
	for b := range banks {
		scfg, wb := cfg, w
		if banks > 1 {
			scfg = shardSystemConfig(dcfg, b, banks)
			wb.Seed = rng.SeedStream(w.Seed, b)
		}
		sys, err := NewSystem(scfg)
		if err == nil {
			shards[b], wname, err = sys.shard(wb)
		}
		if err != nil {
			if banks > 1 {
				err = fmt.Errorf("shard %d/%d: %w", b, banks, err)
			}
			return LifetimeResult{}, plan, err
		}
	}
	res, err := lifetime.Run(shards, lifetime.Options{MaxWrites: maxWrites, Workload: wname, Context: opts.Context})
	return res, plan, err
}

// sharder threads the sweep-level -shards knob through a figure's jobs. It
// deduplicates fallback log lines — a fig16 sweep runs the same scheme
// across 14 benchmarks, and when its geometry cannot divide, one reason
// line per scheme is signal while 14 are noise.
type sharder struct {
	sc   Scale
	mu   sync.Mutex
	seen map[string]bool
}

func newSharder(sc Scale) *sharder { return &sharder{sc: sc, seen: map[string]bool{}} }

// run executes one lifetime job under the sweep's shard policy, logging
// any serial fallback once per (scheme, reason).
func (s *sharder) run(cfg SystemConfig, w WorkloadSpec, maxWrites uint64) (LifetimeResult, error) {
	if cfg.Wear == "" {
		cfg.Wear = s.sc.WearModel
	}
	res, plan, err := RunShardedLifetime(cfg, w, maxWrites, ShardedRunOptions{
		Shards:  s.sc.Shards,
		Context: s.sc.Context,
	})
	if err == nil && plan.Reason != "" && s.sc.Logf != nil {
		key := string(cfg.Scheme) + "\x00" + plan.Reason
		s.mu.Lock()
		first := !s.seen[key]
		s.seen[key] = true
		s.mu.Unlock()
		if first {
			s.sc.Logf("shards: %s runs serial: %s", cfg.Scheme, plan.Reason)
		}
	}
	return res, err
}
