// Package nvm models an MLC NVM main-memory device at line granularity.
//
// The model captures exactly what the paper's lifetime evaluation needs
// (Sec 2.2, 4.3): a per-line write counter, a per-line endurance limit
// (10^5-10^6 writes for MLC cells), a pool of spare lines that replace
// worn-out lines, and the failure rule — the device dies when spares are
// exhausted. Per-access energy is carried here; Table 1's timing lives in
// the timing simulator, internal/sim.
//
// The device optionally stores a data word per line so integration tests can
// verify that wear-leveling remapping never loses or corrupts user data.
//
// Beyond clean wear-out, the device models probabilistic faults (Config.Fault,
// internal/fault) and the controller's recovery paths: transient write
// failures are retried up to WriteRetries programming pulses and escalate to
// a spare-line remap; stuck-at faults remap immediately; read-disturb bit
// errors pass through an ECC model with an ECCBits correctable budget —
// below the budget they are corrected silently, at the budget the line is
// scrubbed to a spare, above it the read is an uncorrectable data loss
// counted in Stats. With Config.Fault disabled none of these paths draw
// randomness and the device behaves exactly as the clean model.
package nvm

import (
	"fmt"

	"nvmwear/internal/fault"
)

// Config describes a device.
type Config struct {
	Lines      uint64 // addressable data lines (power of two)
	SpareLines uint64 // replacement pool for worn-out lines
	Endurance  uint32 // nominal per-cell write limit (Wmax)

	// Variation, when > 0, draws each line's endurance from a normal
	// distribution with coefficient of variation Variation (process
	// variation in MLC cells), truncated to [Endurance/4, 2*Endurance].
	// It is consumed by the variation wear model (see Wear).
	Variation float64
	Seed      uint64

	// Wear selects the per-line endurance model (see WearModel). Nil keeps
	// the historical default: variation wear when Variation > 0, uniform
	// otherwise.
	Wear WearModel

	// TrackData allocates one uint64 of payload per line so tests can
	// verify data integrity across swaps.
	TrackData bool

	// Fault enables probabilistic fault injection (internal/fault). The
	// zero value disables it entirely: no RNG draws, behaviour identical
	// to the clean wear-out model.
	Fault fault.Config

	// ECCBits is the per-line correctable-bit budget of the ECC model
	// (default 4). A read-disturb event with fewer bit errors is corrected
	// silently; exactly ECCBits errors correct but scrub the line to a
	// spare; more are an uncorrectable loss.
	ECCBits int

	// WriteRetries bounds the programming-retry loop for transient write
	// faults before the controller gives up on the line and remaps it to a
	// spare (default 3).
	WriteRetries int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.ECCBits == 0 {
		c.ECCBits = 4
	}
	if c.WriteRetries == 0 {
		c.WriteRetries = 3
	}
	return c
}

// Device is a simulated NVM device. It is not safe for concurrent use; the
// simulators drive one device per goroutine.
type Device struct {
	cfg       Config
	writes    []uint32
	endurance []uint32 // nil when uniform
	data      []uint64
	inj       *fault.Injector  // nil when Config.Fault is disabled
	retired   func(pma uint64) // nil unless SetRetireHook was called

	sparesUsed  uint64
	failedLines uint64
	totalWrites uint64
	totalReads  uint64
	dead        bool

	// Fault-recovery accounting (all zero in clean runs).
	transientFaults  uint64 // transient write failures observed
	writeRetries     uint64 // extra programming pulses issued
	retryEscalations uint64 // retry budgets exhausted -> remap
	stuckFaults      uint64 // hard stuck-at faults -> remap
	correctedBits    uint64 // bit errors fixed by ECC
	eccRemaps        uint64 // lines scrubbed to a spare at the ECC limit
	uncorrectable    uint64 // reads lost beyond the ECC budget
}

// Energy per line access in picojoules, after published MLC PCM figures
// (~2 pJ/bit read, ~30 pJ/bit write on a 64 B line).
const (
	readEnergyPJ  = 1024  // 2 pJ/bit * 512 bits
	writeEnergyPJ = 15360 // 30 pJ/bit * 512 bits
)

// EnergyPJ returns the total access energy consumed so far in picojoules:
// the dynamic-energy figure that motivates NVM adoption in Sec 1.
func (d *Device) EnergyPJ() float64 {
	return float64(d.totalReads)*readEnergyPJ + float64(d.totalWrites)*writeEnergyPJ
}

// New constructs a device. Lines must be nonzero.
func New(cfg Config) *Device {
	cfg = cfg.withDefaults()
	if cfg.Lines == 0 {
		panic("nvm: device with zero lines")
	}
	if cfg.Endurance == 0 {
		panic("nvm: device with zero endurance")
	}
	d := &Device{
		cfg:    cfg,
		writes: make([]uint32, cfg.Lines),
	}
	model := cfg.Wear
	if model == nil {
		model = defaultWearModel()
	}
	d.endurance = model.Endurances(cfg)
	if d.endurance != nil && uint64(len(d.endurance)) != cfg.Lines {
		panic(fmt.Sprintf("nvm: wear model %q returned %d endurances for %d lines",
			model.Name(), len(d.endurance), cfg.Lines))
	}
	if cfg.TrackData {
		d.data = make([]uint64, cfg.Lines)
	}
	d.inj = fault.NewInjector(cfg.Fault, fault.StreamDevice)
	return d
}

// Lines returns the number of addressable data lines.
func (d *Device) Lines() uint64 { return d.cfg.Lines }

// Alive reports whether the device still has spare lines available.
func (d *Device) Alive() bool { return !d.dead }

// lineEndurance returns the write limit of line i.
func (d *Device) lineEndurance(i uint64) uint32 {
	if d.endurance != nil {
		return d.endurance[i]
	}
	return d.cfg.Endurance
}

// replaceLine retires physical line pma, counting it failed, and replaces
// it with a spare, resetting the wear counter. When the spare pool is
// exhausted the device is marked dead and replaceLine reports false.
func (d *Device) replaceLine(pma uint64) bool {
	d.failedLines++
	if d.sparesUsed >= d.cfg.SpareLines {
		d.dead = true
		return false
	}
	d.sparesUsed++
	d.writes[pma] = 0
	if d.retired != nil {
		d.retired(pma)
	}
	return true
}

// SetRetireHook registers fn to observe every successful spare replacement
// — wear-out, stuck-at, retry escalation and ECC scrub alike — with the
// retired physical line's address. Decoder-level schemes (WoLFRaM) use it
// to fold the device's spare remaps into their own remap accounting instead
// of layering a second indirection table over the spare area. The hook must
// not access the device. At most one hook; nil clears it.
func (d *Device) SetRetireHook(fn func(pma uint64)) { d.retired = fn }

// wearOne applies one programming pulse to line pma: the endurance check,
// spare replacement on wear-out, and the wear/traffic counters.
func (d *Device) wearOne(pma uint64) bool {
	if d.writes[pma] >= d.lineEndurance(pma) && !d.replaceLine(pma) {
		return false
	}
	d.writes[pma]++
	d.totalWrites++
	return true
}

// Write wears physical line pma by one write. A line serves exactly its
// endurance in writes; the next write to a worn-out line transparently
// consumes a spare (resetting the wear counter), and once spares are
// exhausted the device is marked dead and the write is not served. Write
// reports whether the write was served.
//
// With fault injection enabled the write may additionally fail
// transiently — retried up to WriteRetries extra pulses (each wearing the
// line), then escalated to a spare-line remap — or hit a hard stuck-at
// fault, which remaps immediately. Either escalation can exhaust the spare
// pool and kill the device just like natural wear-out.
func (d *Device) Write(pma uint64) bool {
	if d.dead {
		return false
	}
	if !d.wearOne(pma) {
		return false
	}
	if d.inj == nil {
		return true
	}
	switch d.inj.WriteFault() {
	case fault.WriteOK:
		return true
	case fault.WriteStuck:
		// The cell is permanently stuck: retire the line and rewrite the
		// data on the replacement.
		d.stuckFaults++
		if !d.replaceLine(pma) {
			return false
		}
		d.writes[pma]++
		d.totalWrites++
		return true
	default: // fault.WriteTransient
		d.transientFaults++
		for r := 0; r < d.cfg.WriteRetries; r++ {
			d.writeRetries++
			if !d.wearOne(pma) { // each retry pulse wears the line again
				return false
			}
			if !d.inj.RetryFails() {
				return true
			}
		}
		// Retry budget exhausted: give up on the line and remap.
		d.retryEscalations++
		if !d.replaceLine(pma) {
			return false
		}
		d.writes[pma]++
		d.totalWrites++
		return true
	}
}

// WriteRun applies n consecutive writes to the same physical line and
// returns how many were served. It is observably identical to calling Write
// n times and counting the true returns: endurance checks, spare
// consumption, death and every counter evolve exactly as in the scalar
// sequence. Served < n means the device died at write served+1.
//
// With fault injection enabled the run falls back to per-write calls so the
// injector's RNG draw order is untouched; the clean path folds whole
// endurance spans arithmetically, which is what makes folded runs fast.
func (d *Device) WriteRun(pma, n uint64) uint64 {
	if d.inj != nil {
		for i := uint64(0); i < n; i++ {
			if !d.Write(pma) {
				return i
			}
		}
		return n
	}
	// Clean path. Write(pma) with no injector is wearOne: replace the line
	// when its counter has reached its endurance, then count one write. A
	// line's endurance is constant across spare replacement, so a run of n
	// writes is whole spans of `room` writes between replacements.
	e := uint64(d.lineEndurance(pma))
	var served uint64
	for served < n {
		if d.dead {
			return served
		}
		room := e - uint64(d.writes[pma])
		if room == 0 {
			if !d.replaceLine(pma) {
				return served
			}
			room = e
		}
		take := room
		if left := n - served; take > left {
			take = left
		}
		d.writes[pma] += uint32(take)
		d.totalWrites += take
		served += take
	}
	return served
}

// ReadRun applies n consecutive reads to the same physical line and returns
// how many were issued — identical to n Read calls with a liveness check
// between them (reads cannot kill a clean device, but an injected ECC remap
// can exhaust the spare pool). Issued < n means the device died during the
// last issued read; the rest of the run was not performed.
func (d *Device) ReadRun(pma, n uint64) uint64 {
	if d.inj == nil {
		d.totalReads += n
		return n
	}
	for i := uint64(0); i < n; i++ {
		if d.dead {
			return i
		}
		d.totalReads++
		d.injectRead(pma)
	}
	return n
}

// Read records a read access (reads do not wear NVM cells). With fault
// injection enabled the read may observe disturb-induced bit errors, which
// pass through the ECC model (see Config.ECCBits).
func (d *Device) Read(pma uint64) {
	d.totalReads++
	if d.inj != nil {
		d.injectRead(pma)
	}
}

// injectRead applies the ECC model to one faulted read: k bit errors are
// corrected silently below the ECC budget, scrub the line to a spare at the
// budget, and are an uncorrectable data loss above it.
func (d *Device) injectRead(pma uint64) {
	if d.dead {
		return
	}
	k := d.inj.ReadDisturb()
	if k == 0 {
		return
	}
	switch {
	case k < d.cfg.ECCBits:
		d.correctedBits += uint64(k)
	case k == d.cfg.ECCBits:
		// At the correction limit the controller treats the line as
		// failing and scrubs the (corrected) data onto a spare.
		d.correctedBits += uint64(k)
		d.eccRemaps++
		if d.replaceLine(pma) {
			d.writes[pma]++ // the scrub rewrite
			d.totalWrites++
		}
	default:
		d.uncorrectable++
	}
}

// WriteData stores a payload word at pma and wears the line.
func (d *Device) WriteData(pma, value uint64) bool {
	if d.data != nil {
		d.data[pma] = value
	}
	return d.Write(pma)
}

// ReadData returns the payload word at pma.
func (d *Device) ReadData(pma uint64) uint64 {
	d.totalReads++
	if d.inj != nil {
		d.injectRead(pma)
	}
	if d.data == nil {
		return 0
	}
	return d.data[pma]
}

// MoveData copies the payload from src to dst, wearing dst. A region-wide
// exchange moves whole spans instead (MoveSpan).
func (d *Device) MoveData(dst, src uint64) bool {
	if d.data != nil {
		d.data[dst] = d.data[src]
	}
	return d.Write(dst)
}

// Peek returns the payload at pma without recording an access (test hook).
func (d *Device) Peek(pma uint64) uint64 {
	if d.data == nil {
		return 0
	}
	return d.data[pma]
}

// Stats summarizes device wear.
type Stats struct {
	Lines       uint64 // physical data lines (weights MeanWear in MergeStats)
	TotalWrites uint64
	TotalReads  uint64
	FailedLines uint64
	SparesUsed  uint64
	SpareLines  uint64
	MaxWear     uint32
	MeanWear    float64
	Dead        bool

	// Fault-recovery counters (all zero when Config.Fault is disabled).
	TransientWriteFaults uint64 // transient write failures observed
	WriteRetries         uint64 // extra programming pulses issued
	RetryEscalations     uint64 // retry budgets exhausted -> spare remap
	StuckLineFaults      uint64 // hard stuck-at faults -> spare remap
	CorrectedBits        uint64 // bit errors fixed silently by ECC
	ECCRemaps            uint64 // lines scrubbed to a spare at the ECC limit
	Uncorrectable        uint64 // reads lost beyond the ECC budget
}

// Stats computes current wear statistics.
func (d *Device) Stats() Stats {
	s := Stats{
		Lines:       uint64(len(d.writes)),
		TotalWrites: d.totalWrites,
		TotalReads:  d.totalReads,
		FailedLines: d.failedLines,
		SparesUsed:  d.sparesUsed,
		SpareLines:  d.cfg.SpareLines,
		Dead:        d.dead,

		TransientWriteFaults: d.transientFaults,
		WriteRetries:         d.writeRetries,
		RetryEscalations:     d.retryEscalations,
		StuckLineFaults:      d.stuckFaults,
		CorrectedBits:        d.correctedBits,
		ECCRemaps:            d.eccRemaps,
		Uncorrectable:        d.uncorrectable,
	}
	var sum uint64
	for _, w := range d.writes {
		if w > s.MaxWear {
			s.MaxWear = w
		}
		sum += uint64(w)
	}
	s.MeanWear = float64(sum) / float64(len(d.writes))
	return s
}

// WearCounts exposes the per-line wear counters (shared slice; callers must
// not modify it). Used by metrics (Gini) and the wear visualizer. A result
// that outlives the caller's exclusive ownership of the device — anything
// returned from a parallel experiment job — must clone it, so no analysis
// aliases a slice another goroutine could mutate.
func (d *Device) WearCounts() []uint32 { return d.writes }

// IdealWrites returns the total number of writes the device would absorb
// under perfectly uniform wear: every line (including spares) worn exactly
// to its endurance. Normalized lifetime = writes served / IdealWrites.
func (d *Device) IdealWrites() uint64 {
	if d.endurance == nil {
		return uint64(d.cfg.Endurance) * (d.cfg.Lines + d.cfg.SpareLines)
	}
	var sum uint64
	for _, e := range d.endurance {
		sum += uint64(e)
	}
	// Spares are assumed nominal-endurance.
	return sum + uint64(d.cfg.Endurance)*d.cfg.SpareLines
}

// ShareLines splits a line budget across banks: an even share with the
// remainder going to the lowest-numbered banks, so the per-bank shares sum
// exactly to total. It is the one place the spare-pool and write-budget
// split arithmetic lives, shared by the per-bank system configuration and
// the sharded lifetime runner.
func ShareLines(total, bank, banks uint64) uint64 {
	share := total / banks
	if bank < total%banks {
		share++
	}
	return share
}

// MergeStats folds per-bank device statistics into the global view: the
// counters sum, MaxWear is the maximum across banks, MeanWear is weighted
// by each bank's line count, and Dead — the global death predicate over the
// merged worn-vs-spares accounting — holds only when every bank's spare
// pool is exhausted (a device with any live bank still serves writes, the
// latest-death semantics of the sharded lifetime merge).
func MergeStats(parts ...Stats) Stats {
	if len(parts) == 0 {
		return Stats{}
	}
	out := Stats{Dead: true}
	var weighted float64
	for _, p := range parts {
		out.Lines += p.Lines
		out.TotalWrites += p.TotalWrites
		out.TotalReads += p.TotalReads
		out.FailedLines += p.FailedLines
		out.SparesUsed += p.SparesUsed
		out.SpareLines += p.SpareLines
		out.TransientWriteFaults += p.TransientWriteFaults
		out.WriteRetries += p.WriteRetries
		out.RetryEscalations += p.RetryEscalations
		out.StuckLineFaults += p.StuckLineFaults
		out.CorrectedBits += p.CorrectedBits
		out.ECCRemaps += p.ECCRemaps
		out.Uncorrectable += p.Uncorrectable
		if p.MaxWear > out.MaxWear {
			out.MaxWear = p.MaxWear
		}
		weighted += p.MeanWear * float64(p.Lines)
		out.Dead = out.Dead && p.Dead
	}
	if out.Lines > 0 {
		out.MeanWear = weighted / float64(out.Lines)
	}
	return out
}

// String implements fmt.Stringer.
func (d *Device) String() string {
	return fmt.Sprintf("nvm{lines=%d spares=%d/%d endurance=%d writes=%d dead=%v}",
		d.cfg.Lines, d.sparesUsed, d.cfg.SpareLines, d.cfg.Endurance, d.totalWrites, d.dead)
}
