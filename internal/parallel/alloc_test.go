//go:build !race

// The race detector instruments sync and atomic calls, which can allocate,
// so the count below is pinned without it.

package parallel

import "testing"

// TestForEachAllocatesPerWorker pins the pool's cost: a fan-out starts one
// goroutine per worker, not one per job, so a 10,000-job ForEach at cap 4
// allocates a small constant, however many jobs it runs.
func TestForEachAllocatesPerWorker(t *testing.T) {
	const jobs = 10_000
	limit := NewLimit(4)
	out := make([]int, jobs)
	allocs := testing.AllocsPerRun(20, func() {
		if err := ForEach(limit, jobs, func(i int) error {
			out[i] = i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("%v allocations per %d-job ForEach at cap 4, want at most 16", allocs, jobs)
	}
}
