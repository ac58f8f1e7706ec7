// Package fault is the deterministic fault-injection framework: it decides,
// from an explicit seed, when the simulated NVM misbehaves.
//
// The paper's lifetime evaluation (Figs 12-16) assumes writes either succeed
// or retire a line exactly at its endurance limit. Real MLC NVM fails
// probabilistically: programming pulses fail transiently (retry-able), cells
// get stuck before their nominal endurance, reads disturb neighbouring bits,
// and the NVM-resident wear-leveling metadata is itself subject to all of
// the above (WoLFRaM, arXiv:2010.02825; SoftWear, arXiv:2004.03244). This
// package models those four modes; the recovery paths live in the layers the
// faults attack (internal/nvm for data lines, internal/imt + internal/core
// for metadata).
//
// Determinism rules:
//
//   - Every injector draws from its own xoshiro substream, derived from
//     (Config.Seed, stream id) via rng.SeedStream. Two simulation components
//     (device, metadata) never share a stream, so adding draws in one does
//     not perturb the other, and a sweep job's fault pattern depends only on
//     its derived seed — not on worker count or scheduling.
//   - A disabled config (all rates zero) yields a nil *Injector, and a nil
//     injector performs no RNG draws at all. Fault-free runs are therefore
//     byte-identical to runs of a build without the fault layer.
package fault

import "nvmwear/internal/rng"

// Substream ids for NewInjector, one per attacked component.
const (
	StreamDevice   = 1 // data-line write/read faults (internal/nvm)
	StreamMetadata = 2 // translation-table corruption (internal/imt)
)

// Config sets the per-event fault probabilities. The zero value disables
// injection entirely.
type Config struct {
	// TransientWriteRate is the probability that a demand or wear-leveling
	// write fails transiently. Transient failures are retry-able: the
	// device re-issues the programming pulse up to its retry budget and
	// escalates to a spare-line remap when the budget is exhausted.
	TransientWriteRate float64

	// StuckAtRate is the probability that a write leaves the line hard
	// stuck — a permanent fault striking before the line's nominal
	// endurance. The device must remap the line to a spare immediately.
	StuckAtRate float64

	// ReadDisturbRate is the probability that a read returns bit errors.
	// The number of flipped bits is drawn uniformly from [1, MaxBitErrors];
	// the device's ECC model decides between silent correction, scrub +
	// remap, and uncorrectable data loss.
	ReadDisturbRate float64

	// MaxBitErrors bounds the bit errors per read-disturb event
	// (default 8 — comfortably above typical ECC budgets, so uncorrectable
	// errors are reachable).
	MaxBitErrors int

	// MetadataRate is the probability, per translation-line write, that one
	// mapping-table entry stored on that line is corrupted (a random bit of
	// its packed address word flips). Detection and rebuild are implemented
	// by internal/imt and internal/core.
	MetadataRate float64

	// Seed is the base seed; each injector derives its substream from
	// (Seed, stream id).
	Seed uint64
}

// Enabled reports whether any fault mode is active.
func (c Config) Enabled() bool {
	return c.TransientWriteRate > 0 || c.StuckAtRate > 0 ||
		c.ReadDisturbRate > 0 || c.MetadataRate > 0
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MaxBitErrors == 0 {
		c.MaxBitErrors = 8
	}
	return c
}

// WriteFaultKind classifies the outcome of one write attempt.
type WriteFaultKind uint8

// Write outcomes.
const (
	WriteOK        WriteFaultKind = iota // the write succeeded
	WriteTransient                       // programming failed; retry-able
	WriteStuck                           // the line is permanently stuck
)

// Injector draws fault events for one component. Not safe for concurrent
// use; the simulators drive one injector per goroutine (like nvm.Device).
//
// A nil *Injector is valid and injects nothing — every method treats the
// nil receiver as "faults disabled" so call sites need no guards.
type Injector struct {
	cfg Config
	src *rng.Source
}

// NewInjector builds the injector for one component substream. It returns
// nil when cfg is disabled, so fault-free runs perform no draws.
func NewInjector(cfg Config, stream uint64) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	cfg = cfg.withDefaults()
	return &Injector{cfg: cfg, src: rng.New(rng.SeedStream(cfg.Seed, stream))}
}

// WriteFault draws the outcome of one write attempt. A single uniform draw
// is partitioned between the stuck and transient rates so the two modes
// stay mutually exclusive per attempt.
func (in *Injector) WriteFault() WriteFaultKind {
	if in == nil || (in.cfg.StuckAtRate == 0 && in.cfg.TransientWriteRate == 0) {
		return WriteOK
	}
	p := in.src.Float64()
	if p < in.cfg.StuckAtRate {
		return WriteStuck
	}
	if p < in.cfg.StuckAtRate+in.cfg.TransientWriteRate {
		return WriteTransient
	}
	return WriteOK
}

// RetryFails draws whether a retry of a transiently failed write fails
// again (same transient rate; retries cannot hit new stuck faults — a stuck
// cell would have failed the first attempt).
func (in *Injector) RetryFails() bool {
	if in == nil {
		return false
	}
	return in.src.Bool(in.cfg.TransientWriteRate)
}

// ReadDisturb draws the number of bit errors observed by one read: 0 for a
// clean read, otherwise uniform in [1, MaxBitErrors].
func (in *Injector) ReadDisturb() int {
	if in == nil || in.cfg.ReadDisturbRate == 0 {
		return 0
	}
	if !in.src.Bool(in.cfg.ReadDisturbRate) {
		return 0
	}
	return 1 + in.src.Intn(in.cfg.MaxBitErrors)
}

// CorruptMetadata draws whether a translation-line write corrupts one of
// the entries stored on the line.
func (in *Injector) CorruptMetadata() bool {
	if in == nil || in.cfg.MetadataRate == 0 {
		return false
	}
	return in.src.Bool(in.cfg.MetadataRate)
}

// Intn draws a uniform value in [0, n) — used by victims-of-corruption
// selection (which entry on the line, which bit of the word).
func (in *Injector) Intn(n int) int {
	return in.src.Intn(n)
}
