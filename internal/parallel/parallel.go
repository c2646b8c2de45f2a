// Package parallel provides the bounded worker pool that fans independent
// simulation runs across CPUs.
//
// The pool is deliberately dumb: it runs index-addressed jobs on up to N
// goroutines and slots every result back by index, so callers that derive
// each job's randomness from the job's identity (not from execution order)
// get output that is bit-identical to a sequential run. All determinism
// lives with the caller; all scheduling lives here.
package parallel

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values above zero are taken
// verbatim, anything else means "one per CPU" (GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Limit is a counting semaphore shared by the call sites scheduling onto
// one pool. A fan-out holds each slot it takes until its jobs run out. A
// Limit is not reentrant: a job must not schedule nested work
// onto the limit whose slot it is holding (two layers each waiting for the
// other's slots can deadlock) — give each fan-out layer its own pool.
type Limit chan struct{}

// NewLimit returns a Limit admitting n concurrent holders; n is resolved
// through Workers.
func NewLimit(n int) Limit {
	return make(Limit, Workers(n))
}

// Acquire blocks until a worker slot is free.
func (l Limit) Acquire() { l <- struct{}{} }

// Release returns a worker slot to the pool.
func (l Limit) Release() { <-l }

// Cap returns the worker budget.
func (l Limit) Cap() int { return cap(l) }

// IndexedError is one failed job of a fan-out.
type IndexedError struct {
	// Index is the job's position in the input.
	Index int
	// Err is what the job returned.
	Err error
}

func (e IndexedError) Error() string {
	return fmt.Sprintf("job %d: %v", e.Index, e.Err)
}

// Errors aggregates the failures of a fan-out, sorted by job index. A
// partial failure does not discard the surviving results: callers receive
// every successful slot alongside the aggregate error.
type Errors []IndexedError

func (e Errors) Error() string {
	if len(e) == 0 {
		return "parallel: no errors"
	}
	parts := make([]string, len(e))
	for i, ie := range e {
		parts[i] = ie.Error()
	}
	return fmt.Sprintf("parallel: %d of the jobs failed: %s", len(e), strings.Join(parts, "; "))
}

// Unwrap exposes the individual job errors to errors.Is/As.
func (e Errors) Unwrap() []error {
	out := make([]error, len(e))
	for i, ie := range e {
		out[i] = ie.Err
	}
	return out
}

// ForEach runs fn(i) for every i in [0, n) on the pool bounded by limit
// (its own private pool when limit is nil, sized by Workers(0)). It always
// runs every job; the returned error is nil when all jobs succeed and an
// Errors value otherwise. Results must be slotted by the caller (typically
// into a pre-sized slice at index i), which keeps output independent of
// scheduling order.
func ForEach(limit Limit, n int, fn func(i int) error) error {
	return ForEachStatus(limit, n, func(_, i int) error { return fn(i) }, nil)
}

// ForEachStatus is ForEach with worker slots and a completion hook. Job i
// runs as fn(w, i), where w is the slot of the worker running it: below
// min(limit.Cap(), n), 0 on the inline path, and never held by two jobs
// at once, so a caller can keep one scratch per slot. After each job
// finishes, done(i, err) is invoked with the job's index and outcome.
// Calls to done are serialized under one internal mutex and happen after
// the job's own writes, so a hook may safely read what job i produced,
// maintain shared progress state, or snapshot the results of every job it
// has been told about — that is what the fleet engine's shard folds,
// progress reporting and checkpoints hang off. Completion order is
// whatever the scheduler produced; anything that must be deterministic
// belongs in an index-ordered pass after ForEachStatus returns, or in a
// hook that waits for a fixed set of jobs.
//
// Jobs are taken in index order: min(limit.Cap(), n) goroutines each hold
// one slot of limit and take the next index until none is left, so a
// fan-out costs O(workers) allocations however many jobs it runs.
func ForEachStatus(limit Limit, n int, fn func(w, i int) error, done func(i int, err error)) error {
	return forEachStatus(nil, limit, n, fn, done)
}

// ForEachStatus is the package's ForEachStatus with its worker loops on
// c's goroutines.
func (c *Crew) ForEachStatus(limit Limit, n int, fn func(w, i int) error, done func(i int, err error)) error {
	return forEachStatus(c, limit, n, fn, done)
}

// forEachStatus is ForEachStatus with its worker loops on crew's
// goroutines, or on new ones when crew is nil.
func forEachStatus(crew *Crew, limit Limit, n int, fn func(w, i int) error, done func(i int, err error)) error {
	if n <= 0 {
		return nil
	}
	if limit == nil {
		limit = NewLimit(0)
	}
	var (
		mu   sync.Mutex
		errs Errors
	)
	finish := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs = append(errs, IndexedError{Index: i, Err: err})
		}
		if done != nil {
			done(i, err)
		}
	}
	// A sequential budget (or a single job) needs no goroutines at all;
	// running inline keeps stack traces and profiles readable.
	if limit.Cap() == 1 || n == 1 {
		for i := 0; i < n; i++ {
			finish(i, fn(0, i))
		}
		if len(errs) > 0 {
			return errs
		}
		return nil
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	workers := min(limit.Cap(), n)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		limit.Acquire()
		loop := func() {
			defer wg.Done()
			defer limit.Release()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				finish(i, fn(w, i))
			}
		}
		if crew == nil {
			go loop()
		} else {
			crew.start(w, loop)
		}
	}
	wg.Wait()
	if len(errs) > 0 {
		sort.Slice(errs, func(a, b int) bool { return errs[a].Index < errs[b].Index })
		return errs
	}
	return nil
}

// Crew keeps the worker goroutines of one caller's fan-outs between them:
// the loop of worker slot w runs on the crew's goroutine for slot w, which
// the first fan-out that needed the slot started, and which waits for the
// next loop when its loop ends. The runtime keeps a finished goroutine's
// record on the free list of the P it exits on, not of the P that starts
// the next one, so a caller that fans out again and again on fresh
// goroutines has the runtime allocate new records in a share of its
// fan-outs until every P's list fills; a crew starts no goroutine after
// its widest fan-out. A crew runs one fan-out at a time. The zero Crew
// has no goroutines; close a crew that is no longer needed, or its
// goroutines stay.
type Crew struct {
	slots []chan func()
}

// Close ends c's goroutines once their loops end; c must not run another
// fan-out.
func (c *Crew) Close() {
	for _, next := range c.slots {
		close(next)
	}
}

// start runs loop on slot w's goroutine, starting it if w is new. The
// slot's previous loop has returned from its work, so the one-loop buffer
// is free even if the goroutine has not come back for it yet.
func (c *Crew) start(w int, loop func()) {
	if w == len(c.slots) {
		next := make(chan func(), 1)
		c.slots = append(c.slots, next)
		go func() {
			for loop := range next {
				loop()
			}
		}()
	}
	c.slots[w] <- loop
}

// Map runs fn over [0, n) on the pool bounded by limit and returns the
// results in input order. Failed slots hold their zero value; the error
// aggregates every failure as an Errors value.
func Map[T any](limit Limit, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(limit, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
