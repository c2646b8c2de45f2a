package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Fatalf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-3); got != Workers(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS default %d", got, Workers(0))
	}
}

func TestForEachRunsEveryJobAndSlotsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		n := 50
		out := make([]int, n)
		err := ForEach(NewLimit(workers), n, func(i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var active, peak int64
	var mu sync.Mutex
	err := ForEach(NewLimit(workers), 40, func(int) error {
		cur := atomic.AddInt64(&active, 1)
		mu.Lock()
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		time.Sleep(time.Millisecond) // hold the slot so jobs overlap
		atomic.AddInt64(&active, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Fatalf("observed %d concurrent jobs, budget %d", peak, workers)
	}
}

func TestForEachAggregatesErrorsSortedByIndex(t *testing.T) {
	wantBad := map[int]bool{3: true, 7: true, 11: true}
	err := ForEach(NewLimit(4), 12, func(i int) error {
		if wantBad[i] {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	})
	var errs Errors
	if !errors.As(err, &errs) {
		t.Fatalf("error type %T, want Errors", err)
	}
	if len(errs) != len(wantBad) {
		t.Fatalf("got %d errors, want %d: %v", len(errs), len(wantBad), errs)
	}
	prev := -1
	for _, ie := range errs {
		if !wantBad[ie.Index] {
			t.Fatalf("unexpected failed index %d", ie.Index)
		}
		if ie.Index <= prev {
			t.Fatalf("errors not sorted by index: %v", errs)
		}
		prev = ie.Index
	}
}

func TestForEachSequentialInline(t *testing.T) {
	// A 1-slot pool must preserve submission order exactly.
	var order []int
	err := ForEach(NewLimit(1), 10, func(i int) error {
		order = append(order, i) // no mutex: inline execution is the contract
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential pool ran out of order: %v", order)
		}
	}
}

func TestMapPartialFailureKeepsSurvivors(t *testing.T) {
	out, err := Map(NewLimit(4), 6, func(i int) (int, error) {
		if i == 2 {
			return 0, errors.New("nope")
		}
		return i + 1, nil
	})
	if err == nil {
		t.Fatal("want aggregated error")
	}
	for i, v := range out {
		want := i + 1
		if i == 2 {
			want = 0 // failed slot holds the zero value
		}
		if v != want {
			t.Fatalf("slot %d = %d, want %d", i, v, want)
		}
	}
}

func TestForEachZeroJobs(t *testing.T) {
	if err := ForEach(nil, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

// TestForEachStatusSerializedHook checks the ForEachStatus contract: done
// fires exactly once per job with the job's outcome, hook calls never
// overlap, and a hook reading what completed jobs wrote observes those
// writes (the happens-before edge checkpointing relies on).
func TestForEachStatusSerializedHook(t *testing.T) {
	const n = 64
	results := make([]int, n)
	var (
		inHook   atomic.Int32
		calls    = make([]int, n)
		observed atomic.Int32
	)
	err := ForEachStatus(NewLimit(8), n, func(_, i int) error {
		results[i] = i * i
		if i%5 == 0 {
			return fmt.Errorf("job %d boom", i)
		}
		return nil
	}, func(i int, err error) {
		if inHook.Add(1) != 1 {
			t.Error("done hook overlapped with another")
		}
		defer inHook.Add(-1)
		calls[i]++
		if (i%5 == 0) != (err != nil) {
			t.Errorf("job %d: err = %v", i, err)
		}
		if results[i] != i*i {
			t.Errorf("hook for %d cannot see the job's write", i)
		}
		observed.Add(1)
	})
	if observed.Load() != n {
		t.Fatalf("hook ran %d times, want %d", observed.Load(), n)
	}
	for i, c := range calls {
		if c != 1 {
			t.Fatalf("job %d hook ran %d times", i, c)
		}
	}
	var errs Errors
	if !errors.As(err, &errs) {
		t.Fatalf("err = %v, want Errors", err)
	}
	if len(errs) != (n+4)/5 {
		t.Fatalf("got %d errors, want %d", len(errs), (n+4)/5)
	}
}

// TestForEachStatusSequentialInline covers the inline (no-goroutine) path:
// hooks fire in index order when the budget is one worker.
func TestForEachStatusSequentialInline(t *testing.T) {
	var order []int
	err := ForEachStatus(NewLimit(1), 5, func(_, i int) error {
		return nil
	}, func(i int, err error) {
		order = append(order, i)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("sequential hook order %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("hook ran %d times, want 5", len(order))
	}
}

// TestForEachStatusNilHook: ForEach is ForEachStatus with a nil hook.
func TestForEachStatusNilHook(t *testing.T) {
	var ran atomic.Int32
	if err := ForEachStatus(NewLimit(4), 16, func(_, i int) error {
		ran.Add(1)
		return nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 16 {
		t.Fatalf("ran %d jobs, want 16", ran.Load())
	}
}

// TestForEachStatusWorkerSlots checks the slot contract: every job's slot
// is below the fan-out's worker count, no two jobs hold one slot at once,
// and the inline path runs every job in slot 0.
func TestForEachStatusWorkerSlots(t *testing.T) {
	for _, tc := range []struct{ cap, n, workers int }{{1, 9, 1}, {4, 1, 1}, {3, 40, 3}, {8, 5, 5}} {
		busy := make([]atomic.Int32, tc.workers)
		err := ForEachStatus(NewLimit(tc.cap), tc.n, func(w, i int) error {
			if w < 0 || w >= tc.workers {
				return fmt.Errorf("slot %d outside [0, %d)", w, tc.workers)
			}
			if busy[w].Add(1) != 1 {
				return fmt.Errorf("slot %d held by two jobs", w)
			}
			time.Sleep(time.Microsecond)
			busy[w].Add(-1)
			return nil
		}, nil)
		if err != nil {
			t.Errorf("cap %d, %d jobs: %v", tc.cap, tc.n, err)
		}
	}
}

// TestCrewRunsEachSlotOnOneGoroutine runs ten fan-outs on one crew: every
// job of a slot, in every fan-out, runs on the same goroutine, and Close
// ends the crew's goroutines.
func TestCrewRunsEachSlotOnOneGoroutine(t *testing.T) {
	goroutine := func() string {
		var buf [64]byte
		return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
	}
	before := runtime.NumGoroutine()
	c := new(Crew)
	ran := make([]string, 4)
	for range 10 {
		err := c.ForEachStatus(NewLimit(4), 64, func(w, i int) error {
			switch g := goroutine(); ran[w] {
			case "":
				ran[w] = g
			case g:
			default:
				return fmt.Errorf("slot %d ran on goroutines %s and %s", w, ran[w], g)
			}
			return nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines an interval after Close, %d before the crew", runtime.NumGoroutine(), before)
		}
	}
}
