package simtime

import "time"

// MergeRuns calls emit on every element of src in the order a stable sort
// by at would give: instants non-decreasing, equal instants in src's own
// order. It takes src as its maximal non-decreasing runs and merges them,
// each next element coming from the run whose head is earliest, the
// earlier run on a tie. That costs O(len(src) × runs), so it suits a few
// time-ordered streams laid end to end, such as each app's arrivals or
// beats, which a sort would order all over again. Any src gives the stable
// order; only the cost depends on the runs.
//
//etrain:hotpath
func MergeRuns[T any](src []T, at func(*T) time.Duration, emit func(*T)) {
	// heads[r] is run r's next element and ends[r] its end. A few streams
	// fit the arrays; more runs spill to the heap.
	var headBuf, endBuf [8]int
	heads, ends := headBuf[:0], endBuf[:0]
	if len(src) > 0 {
		heads = append(heads, 0)
	}
	for i := 1; i < len(src); i++ {
		if at(&src[i]) < at(&src[i-1]) {
			ends = append(ends, i)
			heads = append(heads, i)
		}
	}
	ends = append(ends, len(src))
	for range src {
		best := -1
		var bestAt time.Duration
		for r, h := range heads {
			if h == ends[r] {
				continue
			}
			if t := at(&src[h]); best < 0 || t < bestAt {
				best, bestAt = r, t
			}
		}
		emit(&src[heads[best]])
		heads[best]++
	}
}
