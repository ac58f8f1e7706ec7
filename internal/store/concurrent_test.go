package store

// Concurrent-access tests for the server workload: one process holding the
// store open for a long time while many goroutines (the serve run workers)
// read and write at once, and many processes-worth of Open calls racing
// for the lockfile.

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentReadersNoQuarantineFalsePositives: goroutines hammering Get
// on a fixed key set while writers keep adding entries must never observe a
// missing or corrupt value for a key that was fully written — racing
// readers must not trip the quarantine path on healthy entries.
func TestConcurrentReadersNoQuarantineFalsePositives(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Logf = t.Logf

	const warm = 64
	payload := func(i int) []byte { return []byte(fmt.Sprintf("payload-%d", i)) }
	for i := 0; i < warm; i++ {
		if err := s.Put(fmt.Sprintf("warm-%d", i), payload(i)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var misses atomic.Int64
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for i := 0; i < warm; i++ {
					b, ok := s.Get(fmt.Sprintf("warm-%d", i))
					if !ok {
						misses.Add(1)
						continue
					}
					if string(b) != string(payload(i)) {
						t.Errorf("warm-%d read %q, want %q", i, b, payload(i))
					}
				}
			}
		}()
	}
	// Writers churn fresh keys (including same-key rewrites) while the
	// readers run: write-atomicity means readers of warm keys never care.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("churn-%d-%d", w, i%10)
				if err := s.Put(key, payload(i)); err != nil {
					t.Errorf("churn put: %v", err)
				}
				s.Get(key)
			}
		}(w)
	}
	wg.Wait()

	if n := misses.Load(); n != 0 {
		t.Errorf("%d reads of fully-written entries missed", n)
	}
	if q := s.Stats().Quarantined; q != 0 {
		t.Errorf("%d healthy entries quarantined under concurrent access", q)
	}
}

// TestConcurrentOpenSingleWinner: N racing Opens of one directory admit
// exactly one holder (the lockfile's flock is the arbiter); after the
// winner closes, the lock is free again for the next claimant.
func TestConcurrentOpenSingleWinner(t *testing.T) {
	dir := t.TempDir()
	const racers = 8
	stores := make([]*Store, racers)
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stores[i], errs[i] = Open(dir)
		}(i)
	}
	wg.Wait()

	var winner *Store
	won := 0
	for i := 0; i < racers; i++ {
		switch {
		case errs[i] == nil:
			won++
			winner = stores[i]
		default:
			var busy *BusyError
			if !errors.As(errs[i], &busy) {
				t.Errorf("loser %d got %v, want *BusyError", i, errs[i])
			}
		}
	}
	if won != 1 {
		t.Fatalf("%d racing Opens succeeded, want exactly 1", won)
	}
	if err := winner.Close(); err != nil {
		t.Fatal(err)
	}
	next, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after the winner closed: %v", err)
	}
	next.Close()
}

// TestBusyErrorWhileHeldThenReclaimAfterClose is the serve arbitration
// sequence end to end: while a long-lived holder (the first server) keeps
// the store open, every other Open fails busy — repeatedly, without ever
// stealing the lock — and the moment the holder closes, the next Open
// succeeds and reads the holder's entries.
func TestBusyErrorWhileHeldThenReclaimAfterClose(t *testing.T) {
	dir := t.TempDir()
	holder, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 3; attempt++ {
		_, err := Open(dir)
		var busy *BusyError
		if !errors.As(err, &busy) {
			t.Fatalf("attempt %d while held: err = %v, want *BusyError", attempt, err)
		}
	}
	if _, ok := holder.Get("k"); !ok {
		t.Fatal("holder lost its entry while rejecting claimants")
	}
	if err := holder.Close(); err != nil {
		t.Fatal(err)
	}
	successor, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after holder closed: %v", err)
	}
	defer successor.Close()
	if b, ok := successor.Get("k"); !ok || string(b) != "v" {
		t.Fatalf("successor read %q/%v, want the holder's entry", b, ok)
	}
}

// holdEnv makes the test binary a lock holder: TestKilledHolderReleasesLock
// re-executes itself with this set to a store directory.
const holdEnv = "STORE_TEST_HOLD_DIR"

// TestKilledHolderReleasesLock goes through the real mechanism: a holder
// subprocess opens the store and is SIGKILLed without closing it. While it
// lives, Open fails busy and names its PID; once it is dead, the kernel has
// dropped its flock and the next Open wins.
func TestKilledHolderReleasesLock(t *testing.T) {
	if dir := os.Getenv(holdEnv); dir != "" {
		s, err := Open(dir)
		if err != nil {
			fmt.Println(err)
			os.Exit(2)
		}
		fmt.Println("locked")
		time.Sleep(time.Hour) // until the parent kills this process
		s.Close()
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestKilledHolderReleasesLock$")
	cmd.Env = append(os.Environ(), holdEnv+"="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	if line, _ := bufio.NewReader(out).ReadString('\n'); line != "locked\n" {
		t.Fatalf("holder did not lock the store: %q", line)
	}

	_, err = Open(dir)
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("Open while the holder lives = %v, want *BusyError", err)
	}
	if busy.PID != cmd.Process.Pid {
		t.Errorf("BusyError pid %d, want the holder's %d", busy.PID, cmd.Process.Pid)
	}

	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after the holder was killed: %v", err)
	}
	s.Close()
}
