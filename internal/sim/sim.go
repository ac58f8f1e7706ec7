// Package sim is the timing model standing in for the paper's gem5 +
// NVMain stack (Sec 4.1, Table 1; substitution documented in DESIGN.md).
//
// It models an 8-core 3.2 GHz system in closed loop: each core alternates
// compute phases (calibrated per benchmark by instructions-per-memory-
// request, which also folds in the L1 and L2 filtering) with line-granular
// memory requests. Each request pays address translation (5 ns on a CMT
// hit, 55 ns on a miss, 0 for the no-wear-leveling baseline, 5 ns flat for
// schemes whose whole table is on chip), queues on one of the banked NVM
// channels, and occupies the bank for the device read (50 ns) or write
// (350 ns) latency. Wear-leveling data exchanges block the issuing bank for
// their full duration — the mechanism that makes frequent fine-grained
// swaps expensive (Fig 17's BWL bar).
//
// Reads block the issuing core; writes are posted. IPC is computed from
// total instructions over the slowest core's finishing time and reported
// relative to a baseline run to reproduce Fig 17's degradation bars.
//
// Run is the analytic model the experiments use; RunEvent is the
// discrete-event reference that checks it. Both serve and price every
// request through the same step (meter).
package sim

import (
	"slices"

	"nvmwear/internal/trace"
	"nvmwear/internal/wl"
)

// Table 1's simulated system: the one statement of the timing both models
// and the root package's RunTable1 read.
const (
	Cores         = 8      // CPU cores
	FreqGHz       = 3.2    // core clock; 1 instruction per cycle between requests
	Banks         = 16     // NVM banks behind the memory controller
	QueueDepth    = 128    // FR-FCFS controller queue: RunEvent's write-buffer bound
	ReadLatNs     = 50.0   // PCM line read
	WriteLatNs    = 350.0  // PCM line write (MLC)
	TransHitNs    = 5.0    // translation, mapping-cache hit
	TransMissNs   = 55.0   // translation, mapping-cache miss (an IMT line read)
	OnChipTransNs = 5.0    // translation, schemes with their whole table on chip
	RebuildLatNs  = 1000.0 // per metadata-entry rebuild: inverse-table scan + line rewrite
)

// Config parameterizes a timing run.
type Config struct {
	Requests       uint64  // memory requests to simulate (default 2<<20)
	InstrPerMemReq float64 // compute instructions between memory requests (default 30)

	// GlobalSwapBlocking models a non-tiered controller whose data
	// exchanges stage whole regions through the controller SRAM, stalling
	// every bank for the exchange duration (the paper's BWL). Tiered
	// schemes charge exchanges only to the issuing bank.
	GlobalSwapBlocking bool
}

func (c Config) withDefaults() Config {
	if c.InstrPerMemReq == 0 {
		c.InstrPerMemReq = 30
	}
	if c.Requests == 0 {
		c.Requests = 2 << 20
	}
	return c
}

// Result summarizes a timing run.
type Result struct {
	IPC          float64
	Instructions float64
	ElapsedNs    float64
	MemRequests  uint64
	// L2HitRate is always 0: the L2 is folded into InstrPerMemReq, so every
	// request reaches memory. The field stays so encoded results keep their
	// shape.
	L2HitRate     float64
	AvgReadLatNs  float64
	TransOverhead float64 // mean translation ns per memory access
}

// Degradation returns 1 - IPC/baselineIPC, the quantity Fig 17 plots.
func (r Result) Degradation(baseline Result) float64 {
	if baseline.IPC == 0 {
		return 0
	}
	return 1 - r.IPC/baseline.IPC
}

// meter serves requests through the scheme and prices each one from the
// scheme's counter deltas. It also keeps the totals a Result reports.
type meter struct {
	lv       wl.Leveler
	baseline bool // the no-wear-leveling scheme translates for free
	prev     wl.Stats

	reqs, reads     uint64
	readNs, transNs float64 // totals over reads and over requests
}

func newMeter(lv wl.Leveler) *meter {
	return &meter{lv: lv, baseline: lv.Name() == "Baseline", prev: lv.Stats()}
}

// access is what one served request costs the memory system.
type access struct {
	bank    int
	transNs float64 // translation, metadata-rebuild stalls included
	swaps   uint64  // swap and table line writes: occupy the issuing bank
	merges  uint64  // region-merge line writes: background traffic
}

// step serves one request through the scheme, then prices its translation
// class, its metadata-rebuild stall and the swap and merge writes it
// caused.
func (m *meter) step(op trace.Op, addr uint64) access {
	pma := m.lv.Access(op, addr)
	st := m.lv.Stats()
	a := access{bank: int(pma % Banks)}
	switch {
	case m.baseline:
	case st.CMTHits != m.prev.CMTHits:
		a.transNs = TransHitNs
	case st.CMTMisses != m.prev.CMTMisses:
		a.transNs = TransMissNs
	default:
		a.transNs = OnChipTransNs
	}
	// Metadata rebuilds stall the translation path itself: the request
	// cannot proceed until the entry is reconstructed.
	a.transNs += float64(st.MetaRebuilds-m.prev.MetaRebuilds) * RebuildLatNs
	a.swaps = st.SwapWrites - m.prev.SwapWrites + st.TableWrites - m.prev.TableWrites
	a.merges = st.MergeWrites - m.prev.MergeWrites
	m.prev = st
	m.reqs++
	m.transNs += a.transNs
	return a
}

// read records one completed read's latency.
func (m *meter) read(latNs float64) {
	m.reads++
	m.readNs += latNs
}

// result assembles the Result of a run of cfg that finished at elapsedNs.
func (m *meter) result(cfg Config, elapsedNs float64) Result {
	instr := float64(cfg.Requests) * cfg.InstrPerMemReq
	res := Result{Instructions: instr, ElapsedNs: elapsedNs, MemRequests: m.reqs}
	if elapsedNs > 0 {
		res.IPC = instr / (elapsedNs * FreqGHz)
	}
	if m.reads > 0 {
		res.AvgReadLatNs = m.readNs / float64(m.reads)
	}
	if m.reqs > 0 {
		res.TransOverhead = m.transNs / float64(m.reqs)
	}
	return res
}

// Run simulates cfg.Requests memory requests from the stream through the
// scheme. The scheme performs its normal wear-leveling work; its swap and
// table writes are charged to the issuing bank.
func Run(lv wl.Leveler, stream trace.Stream, cfg Config) Result {
	cfg = cfg.withDefaults()
	m := newMeter(lv)
	computeNs := cfg.InstrPerMemReq / FreqGHz
	var coreTime [Cores]float64
	var bankBusy [Banks]float64
	reqs := trace.NewCursor(stream, cfg.Requests)
	for i := uint64(0); i < cfg.Requests; i++ {
		c := i % Cores
		r, _ := reqs.Next()
		issue := coreTime[c] + computeNs
		a := m.step(r.Op, r.Addr)

		start := issue + a.transNs
		if bankBusy[a.bank] > start {
			start = bankBusy[a.bank]
		}
		dur := WriteLatNs
		if r.Op == trace.Read {
			dur = ReadLatNs
		}
		finish := start + dur
		// The access's swap and table writes then hold its bank.
		busy := finish + float64(a.swaps)*WriteLatNs
		bankBusy[a.bank] = busy
		if cfg.GlobalSwapBlocking && a.swaps > 0 {
			for b := range bankBusy {
				if bankBusy[b] < busy {
					bankBusy[b] = busy
				}
			}
		}
		// Region-merge traffic is background (the controller serves demand
		// requests from staged data while it drains), so it is scheduled on
		// the least-busy bank instead of blocking the issuing one.
		if a.merges > 0 {
			idle := 0
			for b := range bankBusy {
				if bankBusy[b] < bankBusy[idle] {
					idle = b
				}
			}
			bankBusy[idle] += float64(a.merges) * WriteLatNs
		}
		if r.Op == trace.Read {
			m.read(finish - issue)
			coreTime[c] = finish
		} else {
			coreTime[c] = issue + a.transNs
		}
	}
	return m.result(cfg, slices.Max(coreTime[:]))
}

// InstrPerMemReq maps the paper's SPEC benchmarks to a compute intensity:
// how many instructions a core executes per memory request it emits.
// Memory-bound benchmarks (mcf, lbm, libquantum, milc) sit low; compute-
// bound ones (namd, gromacs, sjeng, gobmk) sit high. These feed Fig 17.
var InstrPerMemReq = map[string]float64{
	"bzip2":      60,
	"gcc":        35,
	"mcf":        10,
	"milc":       18,
	"gromacs":    70,
	"cactusADM":  25,
	"leslie3d":   20,
	"namd":       90,
	"gobmk":      65,
	"soplex":     22,
	"hmmer":      55,
	"sjeng":      75,
	"libquantum": 12,
	"lbm":        11,
}
