//go:build !(darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd)

package store

import (
	"errors"
	"fmt"
	"os"
)

// lock reports that the platform has no flock(2), so the store cannot be
// locked, and therefore not opened, here.
func lock(*os.File) error { return fmt.Errorf("flock: %w", errors.ErrUnsupported) }

// unlock is never reached: Open fails before a lock is held.
func unlock(*os.File) error { return nil }
