package simtime

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestMergeRunsIsAStableSort checks MergeRuns against slices.SortStableFunc
// on random inputs: a few sorted streams laid end to end, as the callers
// pass, and unsorted ones, whose every descent starts a run. Instants come
// from a small range, so equal ones meet within and across runs.
func TestMergeRunsIsAStableSort(t *testing.T) {
	type ev struct {
		at  time.Duration
		pos int
	}
	at := func(e *ev) time.Duration { return e.at }
	rng := rand.New(rand.NewSource(21))
	for c := 0; c < 3000; c++ {
		var src []ev
		sorted := c%2 == 0
		for s := rng.Intn(5); s >= 0; s-- {
			n := rng.Intn(12)
			from := len(src)
			for i := 0; i < n; i++ {
				src = append(src, ev{at: time.Duration(rng.Intn(8)), pos: len(src)})
			}
			if sorted {
				slices.SortStableFunc(src[from:], func(a, b ev) int { return cmp.Compare(a.at, b.at) })
			}
		}
		want := slices.Clone(src)
		slices.SortStableFunc(want, func(a, b ev) int { return cmp.Compare(a.at, b.at) })
		var got []ev
		MergeRuns(src, at, func(e *ev) { got = append(got, *e) })
		if !slices.Equal(got, want) {
			t.Fatalf("case %d: MergeRuns(%v) = %v, want %v", c, src, got, want)
		}
	}
}
