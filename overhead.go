package nvmwear

import (
	"fmt"

	"nvmwear/internal/addr"
	"nvmwear/internal/sim"
	"nvmwear/internal/wl/mwsr"
	"nvmwear/internal/wl/pcms"
)

// This file implements Sec 4.5's hardware-overhead arithmetic and Table 1.

func init() {
	Register(Experiment{
		Name:        "table1",
		Description: "simulated system configuration (Table 1)",
		Figure:      "Table 1",
		Order:       10, InAll: true,
		Run: func(Scale) (Result, error) { return Result{RunTable1()}, nil },
		Render: func(r Result) ([]Table, []SVG) {
			t, _ := r.Value.(Table)
			return []Table{t}, nil
		},
	})
	Register(Experiment{
		Name:        "overhead",
		Description: "hardware overhead arithmetic (Sec 4.5)",
		Figure:      "Sec 4.5",
		Order:       200, InAll: true,
		Run: func(Scale) (Result, error) {
			// The paper's full-size configuration: 64 GB, 64M regions, GTD
			// granularity 32 — independent of the experiment scale.
			return Result{RunOverhead(64<<30, 64<<20, 32)}, nil
		},
		Render: func(r Result) ([]Table, []SVG) {
			rep, _ := r.Value.(OverheadReport)
			return []Table{rep.Table()}, nil
		},
	})
}

// OverheadReport holds the storage costs of the tiered architecture for a
// full-size configuration.
type OverheadReport struct {
	CapacityBytes    uint64
	Lines            uint64
	Regions          uint64
	IMTBytes         uint64  // NVM reserved space for the mapping table
	IMTFraction      float64 // IMT / capacity
	TranslationLines uint64
	GTDBytes         uint64 // on-chip directory
	PCMSOnChipBytes  uint64 // what PCM-S would need fully on chip
	MWSROnChipBytes  uint64 // what MWSR would need fully on chip
}

// RunOverhead reproduces the Sec 4.5 numbers. With the paper's 64 GB
// device (2^30 lines of 64 B) and 64M regions it reports a 224 MB IMT
// (0.3% of capacity) and an ~80 KB GTD at translation-line wear-leveling
// granularity 32.
func RunOverhead(capacityBytes uint64, regions uint64, gtdGranularity uint64) OverheadReport {
	const lineBytes = 64
	lines := capacityBytes / lineBytes
	mBits := uint64(addr.Log2(lines)) // m+n bits per IMT entry (Fig 10)
	imtBits := regions * mBits
	imtBytes := imtBits / 8
	// Translation lines: entries packed into 256 B lines in the paper's
	// arithmetic (l = O(IMT) / (8*256) with O(IMT) in bits).
	transLines := imtBytes / 256
	gtdEntries := transLines / gtdGranularity
	gtdEntryBits := uint64(1)
	for uint64(1)<<gtdEntryBits < transLines {
		gtdEntryBits++
	}
	return OverheadReport{
		CapacityBytes:    capacityBytes,
		Lines:            lines,
		Regions:          regions,
		IMTBytes:         imtBytes,
		IMTFraction:      float64(imtBytes) / float64(capacityBytes),
		TranslationLines: transLines,
		GTDBytes:         gtdEntries * gtdEntryBits / 8,
		PCMSOnChipBytes:  regions * (pcms.EntryBits(regions, lines/regions) + 24) / 8,
		MWSROnChipBytes:  regions * (mwsr.EntryBits(regions, lines/regions) + 24) / 8,
	}
}

// Table returns the report as a Table — the registry Render shape.
func (r OverheadReport) Table() Table {
	return Table{
		Title:   "Hardware overhead (Sec 4.5)",
		Columns: []string{"item", "value"},
		Rows: [][]string{
			{"capacity", fmt.Sprintf("%d GB", r.CapacityBytes>>30)},
			{"lines", fmt.Sprintf("%d", r.Lines)},
			{"regions", fmt.Sprintf("%d", r.Regions)},
			{"IMT (NVM reserved)", fmt.Sprintf("%.0f MB (%.2f%% of capacity)",
				float64(r.IMTBytes)/(1<<20), 100*r.IMTFraction)},
			{"translation lines", fmt.Sprintf("%d", r.TranslationLines)},
			{"GTD (on-chip)", fmt.Sprintf("%.0f KB", float64(r.GTDBytes)/(1<<10))},
			{"PCM-S table on chip", fmt.Sprintf("%.0f MB (the cost SAWL avoids)",
				float64(r.PCMSOnChipBytes)/(1<<20))},
			{"MWSR table on chip", fmt.Sprintf("%.0f MB", float64(r.MWSROnChipBytes)/(1<<20))},
		},
	}
}

// RunTable1 returns the paper's simulated-system configuration (Table 1);
// the timing rows print internal/sim's constants.
func RunTable1() Table {
	return Table{
		Title:   "Table 1: simulated system configuration",
		Columns: []string{"component", "configuration"},
		Rows: [][]string{
			{"CPU", fmt.Sprintf("%d cores, X86-64, %g GHz (internal/sim)", sim.Cores, sim.FreqGHz)},
			{"Private L1 cache", "64 KB (folded into per-benchmark instr/mem-req)"},
			{"Shared L2 cache", "512 KB, 16-way (folded into per-benchmark instr/mem-req)"},
			{"CMT cache", "256 KB = 32768 entries (internal/cmt)"},
			{"DRAM/PCM capacity", "128 MB / 8 GB (scaled per experiment; see EXPERIMENTS.md)"},
			{"Read/Write latency", fmt.Sprintf("DRAM 50/50 ns, PCM %g/%g ns (internal/sim)", sim.ReadLatNs, sim.WriteLatNs)},
			{"Address translation", fmt.Sprintf("cache hit %g ns, miss %g ns (internal/sim)", sim.TransHitNs, sim.TransMissNs)},
			{"Memory controller", fmt.Sprintf("FR-FCFS-like banked queue, %d banks (internal/sim)", sim.Banks)},
		},
	}
}
