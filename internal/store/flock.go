//go:build darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd

package store

import (
	"os"
	"syscall"
)

// lock takes a non-blocking exclusive flock(2) on f. It fails with
// syscall.EWOULDBLOCK while another open file holds the lock.
func lock(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
}

// unlock releases the lock taken by lock.
func unlock(f *os.File) error { return syscall.Flock(int(f.Fd()), syscall.LOCK_UN) }
