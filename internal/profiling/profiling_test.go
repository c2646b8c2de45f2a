package profiling

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestStopWritesOnceFromAnyCaller stops one session from several
// goroutines at once, as a command's signal handler and its normal return
// may: both profiles are written, and every caller sees the same result.
func TestStopWritesOnceFromAnyCaller(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	s, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Stop()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("Stop %d: %v", i, err)
		}
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, size %v", path, err, fi)
		}
	}
}

// TestStartWithoutProfiles is the flags' default: nothing is written.
func TestStartWithoutProfiles(t *testing.T) {
	s, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartReportsUnwritablePath reports a CPU profile path that cannot be
// created instead of running unprofiled.
func TestStartReportsUnwritablePath(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "missing", "cpu.out"), ""); err == nil {
		t.Fatal("Start accepted a CPU profile in a missing directory")
	}
}
