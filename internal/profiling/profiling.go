// Package profiling takes the runtime/pprof CPU and allocation profiles
// that the long-running commands (etrain-fleet, etrain-load) write behind
// their -cpuprofile and -memprofile flags. Read them with
// `go tool pprof -top BINARY FILE`.
package profiling

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Session is a started profiling run.
type Session struct {
	cpu     *os.File // nil without a CPU profile
	memPath string   // "" without an allocation profile
	once    sync.Once
	err     error
}

// Start begins a CPU profile into cpuPath when it is set. Stop ends it and
// writes an allocation profile into memPath when that is set.
func Start(cpuPath, memPath string) (*Session, error) {
	s := &Session{memPath: memPath}
	if cpuPath == "" {
		return s, nil
	}
	f, err := os.Create(cpuPath)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	s.cpu = f
	return s, nil
}

// Stop ends the CPU profile and writes the allocation profile. Only the
// first call does the work; a later or concurrent call waits for it and
// returns its error, so every exit path of a command, a signal handler
// included, may call Stop before exiting.
func (s *Session) Stop() error {
	s.once.Do(func() {
		var errs []error
		if s.cpu != nil {
			pprof.StopCPUProfile()
			if err := s.cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpu profile: %w", err))
			}
		}
		if s.memPath != "" {
			errs = append(errs, writeAllocs(s.memPath))
		}
		s.err = errors.Join(errs...)
	})
	return s.err
}

// writeAllocs writes the allocation profile (every allocation sampled since
// the program started, and what is still live after a GC) to path.
func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	runtime.GC() // bring the live-heap figures up to date
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("mem profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	return nil
}
