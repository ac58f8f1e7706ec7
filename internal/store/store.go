// Package store is a crash-safe, content-addressed result store: the disk
// cache behind checkpoint/resume of experiment sweeps.
//
// Every sweep job in this repository is a pure function of its cache key
// (module version salt, scale parameters, figure, job index, seed stream —
// see Scale.cacheKey in the root package), so a completed result can be
// persisted and trusted across process lifetimes. The store is built so
// that no crash — SIGKILL included — can ever make it lie:
//
//   - Entries are written to a temp file, fsynced, and atomically renamed
//     into place. A reader therefore observes an entry either completely
//     or not at all; a crash mid-write leaves only a temp file, which the
//     next Open sweeps away.
//   - Every entry carries a magic/version header, a payload length, and a
//     SHA-256 checksum. A torn, truncated, or bit-flipped entry fails
//     verification on load, is moved to the store's corrupt/ directory
//     with a logged warning, and reads as a miss — the caller recomputes.
//     Corruption is never trusted and never fatal.
//   - An exclusive flock(2) on the store's lockfile, held for the Store's
//     lifetime, keeps concurrent openers — other processes or other Opens
//     in the same process — from sharing one store: a live holder makes
//     Open fail with *BusyError. The kernel drops the lock when its holder
//     dies, so a killed process never leaves the store locked.
//
// Keys are arbitrary strings; the store addresses entries by their SHA-256
// digest, so callers can use readable canonical key strings without
// worrying about filesystem-hostile characters.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
)

const (
	// magic identifies a store entry file; the trailing digit is the
	// on-disk format version (bump on any layout change).
	magic = "WLS1"

	// headerLen is magic (4) + payload length (8) + SHA-256 (32).
	headerLen = 4 + 8 + sha256.Size

	lockName   = "lock"
	objectsDir = "objects"
	corruptDir = "corrupt"
	tmpPrefix  = ".tmp-"
)

// BusyError reports a store whose lockfile is held by a live process. PID
// is the holder's process ID as recorded in the lockfile, or 0 when the
// holder has not written it yet.
type BusyError struct {
	Dir string
	PID int
}

// Error implements error.
func (e *BusyError) Error() string {
	return fmt.Sprintf("store: %s is locked by running process %d", e.Dir, e.PID)
}

// Stats is a snapshot of a store's counters since Open.
type Stats struct {
	Hits        uint64 // Get calls that returned a verified entry
	Misses      uint64 // Get calls that found nothing usable (quarantines included)
	Quarantined uint64 // corrupt entries moved to corrupt/ during Get
	Puts        uint64 // entries durably written
}

// Store is an open result store. It is safe for concurrent use by multiple
// goroutines of one process; cross-process exclusion is enforced by the
// lockfile taken at Open.
type Store struct {
	dir  string
	lock *os.File // the flocked lockfile, held until Close

	// Logf receives warnings (quarantined entries, locks left by killed
	// holders, failed durability syscalls). Defaults to log.Printf; set to
	// nil to silence.
	Logf func(format string, args ...any)

	tmpSeq atomic.Uint64
	closed atomic.Bool

	hits, misses, quarantined, puts atomic.Uint64
}

// Open creates (if needed) and locks the store rooted at dir. It fails
// with *BusyError while another Open — in this process or another — holds
// the store's lock. Leftover temp files from crashed writers are removed.
// Call Close to release the lock.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, objectsDir), filepath.Join(dir, corruptDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{dir: dir, Logf: log.Printf}
	if err := s.acquireLock(); err != nil {
		return nil, err
	}
	s.sweepTemps()
	return s, nil
}

// acquireLock takes a non-blocking exclusive flock on the store's lockfile
// and records this process's PID in it, for the BusyError message of later
// openers. Every Open opens the file afresh, and flock locks belong to the
// open file, so two Opens in one process conflict just like two processes.
// The file is never removed: a second opener always locks the same inode.
func (s *Store) acquireLock() error {
	path := filepath.Join(s.dir, lockName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening lockfile: %w", err)
	}
	if err := lock(f); err != nil {
		pid, _ := lockHolder(f)
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return &BusyError{Dir: s.dir, PID: pid}
		}
		return fmt.Errorf("store: locking %s: %w", path, err)
	}
	// Close empties the file, so a recorded PID means its holder was killed
	// while holding the store.
	if pid, recorded := lockHolder(f); recorded {
		s.logf("store: reclaiming stale lock %s (holder pid %d is gone)", path, pid)
	}
	if err := f.Truncate(0); err == nil {
		_, err = f.WriteAt([]byte(fmt.Sprintf("%d\n", os.Getpid())), 0)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("store: writing lockfile: %w", err)
	}
	s.lock = f
	return nil
}

// lockHolder reads the holder recorded in an open lockfile: whether it
// records anything, and the PID it parses to (0 when it is not a valid
// PID).
func lockHolder(f *os.File) (pid int, recorded bool) {
	buf := make([]byte, 32)
	n, _ := f.ReadAt(buf, 0)
	pid, err := strconv.Atoi(strings.TrimSpace(string(buf[:n])))
	if err != nil || pid < 0 {
		pid = 0
	}
	return pid, n > 0
}

// sweepTemps removes temp files abandoned by crashed writers. Safe because
// the caller holds the lock: any temp file present now belongs to a dead
// process.
func (s *Store) sweepTemps() {
	dir := filepath.Join(s.dir, objectsDir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			s.logf("store: removing abandoned temp file %s", e.Name())
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// Close releases the store's lock. It empties the lockfile but never
// removes it: removal would let a third opener lock a fresh inode while a
// second still holds the old one. The Store must not be used afterwards.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	err := s.lock.Truncate(0)
	if uerr := unlock(s.lock); err == nil {
		err = uerr
	}
	if cerr := s.lock.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Quarantined: s.quarantined.Load(),
		Puts:        s.puts.Load(),
	}
}

// hashKey maps an arbitrary key string to its content address.
func hashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return fmt.Sprintf("%x", sum)
}

// entryPath returns the object path for a hashed key, fanned out over
// 256 prefix directories.
func (s *Store) entryPath(name string) string {
	return filepath.Join(s.dir, objectsDir, name[:2], name)
}

// Get returns the verified payload stored under key, or (nil, false) on a
// miss. An entry that fails verification — wrong magic or version, length
// mismatch, checksum mismatch — is quarantined to corrupt/ with a logged
// warning and reported as a miss; the caller recomputes, never trusts it.
func (s *Store) Get(key string) ([]byte, bool) {
	name := hashKey(key)
	path := s.entryPath(name)
	data, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, why := decodeEntry(data)
	if why != "" {
		s.quarantine(path, name, why)
		s.quarantined.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

// Has reports whether an entry exists under key, without reading or
// verifying it and without touching the hit/miss counters. It is a cheap
// stat(2) probe for staleness reports; a later Get may still miss if the
// entry turns out to be corrupt.
func (s *Store) Has(key string) bool {
	fi, err := os.Stat(s.entryPath(hashKey(key)))
	return err == nil && fi.Mode().IsRegular()
}

// decodeEntry verifies an entry file's header and checksum, returning the
// payload and an empty reason, or a non-empty human-readable reason why
// the entry cannot be trusted.
func decodeEntry(data []byte) (payload []byte, why string) {
	if len(data) == 0 {
		return nil, "zero-length file"
	}
	if len(data) < headerLen {
		return nil, fmt.Sprintf("truncated header (%d bytes)", len(data))
	}
	if string(data[:4]) != magic {
		return nil, fmt.Sprintf("bad magic %q", data[:4])
	}
	length := binary.LittleEndian.Uint64(data[4:12])
	payload = data[headerLen:]
	if uint64(len(payload)) != length {
		return nil, fmt.Sprintf("length header %d but %d payload bytes", length, len(payload))
	}
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(data[12:headerLen]) {
		return nil, "checksum mismatch"
	}
	return payload, ""
}

// quarantine moves a corrupt entry into corrupt/, never deleting evidence:
// repeated corruption of one key gets numbered suffixes.
func (s *Store) quarantine(path, name, why string) {
	dst := filepath.Join(s.dir, corruptDir, name)
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); errors.Is(err, fs.ErrNotExist) {
			break
		}
		dst = filepath.Join(s.dir, corruptDir, fmt.Sprintf("%s.%d", name, i))
	}
	if err := os.Rename(path, dst); err != nil {
		// Last resort: a corrupt entry that cannot be moved must not be
		// read again as if valid.
		os.Remove(path)
		dst = "(removed)"
	}
	s.logf("store: quarantined corrupt entry %s (%s) -> %s; will recompute", name, why, dst)
}

// Put durably stores payload under key: write to a temp file, fsync,
// atomically rename into place, then fsync the parent directory. A crash
// at any point leaves either the complete entry or no entry.
func (s *Store) Put(key string, payload []byte) error {
	name := hashKey(key)
	dir := filepath.Dir(s.entryPath(name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := filepath.Join(s.dir, objectsDir,
		fmt.Sprintf("%s%d-%d", tmpPrefix, os.Getpid(), s.tmpSeq.Add(1)))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	header := make([]byte, headerLen)
	copy(header, magic)
	binary.LittleEndian.PutUint64(header[4:12], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(header[12:], sum[:])
	_, err = f.Write(header)
	if err == nil {
		_, err = f.Write(payload)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, s.entryPath(name))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing entry: %w", err)
	}
	syncDir(dir)
	s.puts.Add(1)
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Best effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Reset empties the store (objects and quarantine) while keeping the lock.
func (s *Store) Reset() error {
	for _, sub := range []string{objectsDir, corruptDir} {
		p := filepath.Join(s.dir, sub)
		if err := os.RemoveAll(p); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := os.MkdirAll(p, 0o755); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// Clear locks the store at dir, empties it, and releases the lock — the
// implementation of wlsim's -cache-clear flag.
func Clear(dir string) error {
	s, err := Open(dir)
	if err != nil {
		return err
	}
	defer s.Close()
	return s.Reset()
}

// logf emits a warning through Logf if set.
func (s *Store) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}
