package workload

import (
	"fmt"

	"nvmwear/internal/rng"
	"nvmwear/internal/trace"
)

// PageLines is the natural spatial-locality granule of the synthetic SPEC
// generators: 64 lines = one 4 KB page of 64 B cache lines. Applications
// touch memory page-wise, which is why the paper's coarse 64-line
// wear-leveling granularity (NWL-64) enjoys high CMT hit rates while the
// 4-line granularity (NWL-4) fragments each page across 16 table entries.
const PageLines = 64

// Profile parameterizes one synthetic SPEC CPU2006-like application.
type Profile struct {
	Name string

	// Pages is the canonical footprint in 4 KB pages (rounded up to a power
	// of two at generator construction). The footprint shrinks to fit when
	// the simulated logical space is smaller.
	Pages uint64

	// ZipfAlpha is the popularity skew across pages. Higher = tighter hot
	// working set.
	ZipfAlpha float64

	// HotPages/HotProb add an extra-hot subset: with probability HotProb a
	// request goes to one of HotPages pages (Zipf-selected). Models
	// benchmarks like hmmer/gromacs whose writes concentrate on a small
	// fraction of the space (paper Sec 4.3).
	HotPages uint64
	HotProb  float64

	// ScanProb is the fraction of requests served from a global sequential
	// scan cursor — streaming benchmarks (lbm, libquantum, leslie3d).
	ScanProb float64

	// SeqRun makes a non-scan access start a sequential run of this many
	// lines with probability SeqProb (spatial locality bursts).
	SeqRun  int
	SeqProb float64

	// WriteRatio is the store fraction of requests.
	WriteRatio float64

	// PhaseEvery rotates the page permutation every PhaseEvery requests
	// (0 = stable), modeling program phase changes; PhaseJump is the
	// rotation amount as a fraction of the footprint.
	PhaseEvery uint64
	PhaseJump  float64
}

// Gen is an instantiated Profile: a deterministic trace.Stream.
type Gen struct {
	p        Profile
	src      *rng.Source
	zipf     *rng.Zipf
	hotZipf  *rng.Zipf
	pages    uint64 // power of two
	pageMask uint64
	permMul  uint64
	permAdd  uint64

	// The profile's trials, drawn as rng.Source.Bool draws them; seq never
	// succeeds, and draws nothing, unless SeqRun > 1.
	write, scan, hot, seq rng.Bernoulli
	// jump is the page rotation of a phase change.
	jump uint64

	scanCur   uint64
	runLeft   int
	runCur    uint64
	phaseLeft uint64 // requests up to and including the next phase change
	phaseBase uint64
}

// New instantiates the profile over a logical address space of `lines`
// lines. The generator never emits an address >= lines.
func (p Profile) New(seed, lines uint64) *Gen {
	if lines < PageLines {
		panic(fmt.Sprintf("workload: address space %d smaller than one page", lines))
	}
	pages := nextPow2(p.Pages)
	if pages == 0 {
		pages = 1
	}
	maxPages := prevPow2(lines / PageLines)
	if pages > maxPages {
		pages = maxPages
	}
	src := rng.New(seed ^ hashName(p.Name))
	g := &Gen{
		p:        p,
		src:      src,
		pages:    pages,
		pageMask: pages - 1,
		// Odd multiplier => bijection on the power-of-two page space; it
		// scatters Zipf-popular ranks across the footprint so hot pages are
		// not artificially contiguous.
		permMul:   src.Uint64() | 1,
		permAdd:   src.Uint64(),
		write:     rng.NewBernoulli(p.WriteRatio),
		scan:      rng.NewBernoulli(p.ScanProb),
		hot:       rng.NewBernoulli(p.HotProb),
		jump:      max(uint64(float64(pages)*p.PhaseJump), 1),
		phaseLeft: p.PhaseEvery,
	}
	if p.SeqRun > 1 {
		g.seq = rng.NewBernoulli(p.SeqProb)
	}
	g.zipf = rng.NewZipf(src.Fork(), pages, p.ZipfAlpha)
	hot := p.HotPages
	if hot == 0 {
		hot = 1
	}
	if hot > pages {
		hot = pages
	}
	g.hotZipf = rng.NewZipf(src.Fork(), hot, 1.1)
	return g
}

// hashName folds the profile name into the seed so that two profiles run
// with the same seed still draw independent streams.
func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func nextPow2(v uint64) uint64 {
	if v == 0 {
		return 0
	}
	p := uint64(1)
	for p < v {
		p <<= 1
	}
	return p
}

func prevPow2(v uint64) uint64 {
	if v == 0 {
		return 0
	}
	p := uint64(1)
	for p<<1 <= v && p<<1 != 0 {
		p <<= 1
	}
	return p
}

// Footprint returns the instantiated footprint in lines.
func (g *Gen) Footprint() uint64 { return g.pages * PageLines }

// permPage maps a Zipf rank to a scattered page index.
func (g *Gen) permPage(rank uint64) uint64 {
	return (rank*g.permMul + g.permAdd + g.phaseBase) & g.pageMask
}

// NextBatch implements trace.Stream. Each request:
//
//   - counts down to the next phase change, which rotates the page
//     permutation by jump and ends any sequential run (PhaseEvery 0 starts
//     the countdown at 0, so the first change would come after 2^64
//     requests);
//   - is a write when the write trial succeeds;
//   - continues a sequential run in progress, else takes the scan cursor
//     when the scan trial succeeds, else picks a page from the hot set's
//     Zipf when the hot trial succeeds and from the footprint's otherwise,
//     and a line in it, where the seq trial may start a run of SeqRun-1
//     more lines.
//
// Runs and the scan wrap at the footprint, a power of two. Draw for draw
// this is the per-request generator the package's tests keep as the
// reference: a trial compares the draw's top 53 bits with a threshold
// (rng.Bernoulli), the write choice compiles to a conditional set, not a
// branch, and the line offset Uint64()>>58 is exactly Uint64n(PageLines).
func (g *Gen) NextBatch(ops []trace.Op, addrs []uint64) int {
	src, footMask := g.src, g.Footprint()-1
	for i := range ops {
		if g.phaseLeft--; g.phaseLeft == 0 {
			g.phaseLeft = g.p.PhaseEvery
			g.phaseBase = (g.phaseBase + g.jump) & g.pageMask
			g.runLeft = 0
		}
		op := trace.Read
		if g.write.Of(src) {
			op = trace.Write
		}
		ops[i] = op

		if g.runLeft > 0 {
			g.runLeft--
			g.runCur = (g.runCur + 1) & footMask
			addrs[i] = g.runCur
			continue
		}
		if g.scan.Of(src) {
			addrs[i] = g.scanCur
			g.scanCur = (g.scanCur + 1) & footMask
			continue
		}
		z := g.zipf
		if g.hot.Of(src) {
			z = g.hotZipf
		}
		a := g.permPage(z.Next())*PageLines + src.Uint64()>>58
		addrs[i] = a
		if g.seq.Of(src) {
			g.runLeft = g.p.SeqRun - 1
			g.runCur = a
		}
	}
	return len(ops)
}

// SpecProfiles are the 14 SPEC CPU2006 applications the paper evaluates
// (Sec 4.1), modeled by locality class:
//
//   - compact hot working sets (bzip2, milc, namd): high CMT hit rates even
//     at fine granularity; slight IPC loss in Fig 17.
//   - broad, fragmented working sets (gcc, mcf, gobmk, sjeng, soplex,
//     cactusADM): fine-granularity tables thrash (low NWL-4 hit rate), the
//     cases SAWL's region-merge is designed for.
//   - streaming (libquantum, lbm, leslie3d): sequential sweeps with little
//     reuse.
//   - concentrated writers (gromacs, hmmer): writes hammer a tiny hot set —
//     worst lifetime under AWL schemes (paper: 10% of ideal under TLSR).
//
// Calibration targets from the paper: NWL-4 / NWL-64 average hit rates of
// bzip2 86.4/98.9 %, cactusADM 63/95.2 %, gcc 58.3/98.9 % (Fig 14) with a
// 256 KB CMT, and the Fig 16/17 orderings.
var SpecProfiles = []Profile{
	{Name: "bzip2", Pages: 4096, ZipfAlpha: 1.25, SeqRun: 16, SeqProb: 0.08, WriteRatio: 0.35, PhaseEvery: 40 << 20, PhaseJump: 0.25},
	{Name: "gcc", Pages: 8192, ZipfAlpha: 1.05, SeqRun: 8, SeqProb: 0.04, WriteRatio: 0.30, PhaseEvery: 30 << 20, PhaseJump: 0.30},
	{Name: "mcf", Pages: 131072, ZipfAlpha: 0.70, SeqRun: 2, SeqProb: 0.01, WriteRatio: 0.25},
	{Name: "milc", Pages: 4096, ZipfAlpha: 1.30, SeqRun: 32, SeqProb: 0.10, WriteRatio: 0.35},
	{Name: "gromacs", Pages: 16384, ZipfAlpha: 0.90, HotPages: 8, HotProb: 0.97, SeqRun: 8, SeqProb: 0.05, WriteRatio: 0.30},
	{Name: "cactusADM", Pages: 16384, ZipfAlpha: 1.00, ScanProb: 0.05, SeqRun: 16, SeqProb: 0.05, WriteRatio: 0.45, PhaseEvery: 50 << 20, PhaseJump: 0.20},
	{Name: "leslie3d", Pages: 65536, ZipfAlpha: 0.85, ScanProb: 0.35, SeqRun: 32, SeqProb: 0.10, WriteRatio: 0.40},
	{Name: "namd", Pages: 8192, ZipfAlpha: 1.15, SeqRun: 16, SeqProb: 0.08, WriteRatio: 0.20},
	{Name: "gobmk", Pages: 32768, ZipfAlpha: 0.90, SeqRun: 4, SeqProb: 0.02, WriteRatio: 0.25},
	{Name: "soplex", Pages: 65536, ZipfAlpha: 1.05, ScanProb: 0.05, SeqRun: 16, SeqProb: 0.06, WriteRatio: 0.30, PhaseEvery: 25 << 20, PhaseJump: 0.35},
	{Name: "hmmer", Pages: 32768, ZipfAlpha: 0.85, HotPages: 12, HotProb: 0.96, SeqRun: 8, SeqProb: 0.05, WriteRatio: 0.45},
	{Name: "sjeng", Pages: 32768, ZipfAlpha: 0.80, SeqRun: 2, SeqProb: 0.01, WriteRatio: 0.25},
	{Name: "libquantum", Pages: 65536, ZipfAlpha: 0.80, ScanProb: 0.60, SeqRun: 64, SeqProb: 0.10, WriteRatio: 0.15},
	{Name: "lbm", Pages: 131072, ZipfAlpha: 0.75, ScanProb: 0.55, SeqRun: 64, SeqProb: 0.10, WriteRatio: 0.50},
}

// ProfileByName returns the named profile, or false.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range SpecProfiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Names returns the profile names in evaluation order.
func Names() []string {
	out := make([]string, len(SpecProfiles))
	for i, p := range SpecProfiles {
		out[i] = p.Name
	}
	return out
}

// Footprints returns each named profile's canonical footprint in pages —
// the relative per-job cost of simulating it (unknown names weigh 0).
// Feed it to metrics.CycleCost for longest-job-first sweep dispatch.
func Footprints(names []string) []float64 {
	out := make([]float64, len(names))
	for i, name := range names {
		if p, ok := ProfileByName(name); ok {
			out[i] = float64(p.Pages)
		}
	}
	return out
}
