package stats

import (
	"encoding/json"
	"fmt"
)

// Moments is a streaming, mergeable accumulator for count, mean, variance
// and extrema. Adding one sample applies Welford's update; merging two
// accumulators applies Chan et al.'s pairwise update, of which Welford's
// is the single-sample special case — Add is literally implemented as a
// merge with a one-sample accumulator, so folding a sequence with Add and
// folding the same sequence as singleton merges in index order are
// bit-identical by construction.
//
// Determinism contract (shared with the fleet engine, DESIGN.md §9):
// floating-point merge is not associative at the bit level, so mergeable
// aggregates are always combined in a fixed order — shard-index order —
// regardless of which worker produced which shard. Given that fixed order,
// the merged result is a pure function of the inputs.
//
// The zero Moments is an empty, ready-to-use accumulator.
type Moments struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Single returns the one-sample accumulator of v.
func Single(v float64) Moments {
	return Moments{n: 1, mean: v, min: v, max: v}
}

// Add folds one sample into the accumulator (Welford's update, expressed
// as a singleton merge so Add and Merge share one code path bit-for-bit).
func (m *Moments) Add(v float64) {
	m.Merge(Single(v))
}

// Merge folds other into m with the pairwise mean/M2 update of Chan,
// Golub & LeVeque. Merging an empty side is the identity; with
// other.N() == 1 the update reduces, operation for operation, to
// Welford's single-sample rule.
func (m *Moments) Merge(other Moments) {
	if other.n == 0 {
		return
	}
	if m.n == 0 {
		*m = other
		return
	}
	n := m.n + other.n
	d := other.mean - m.mean
	// Operation order matters for the Add ≡ Merge(Single) bit-identity:
	// d*float64(other.n) is exact when other.n == 1, so the mean update
	// becomes Welford's mean += d/n, and other.m2 == 0 keeps the M2
	// update at m2 += d*d*nA/n.
	m.mean += d * float64(other.n) / float64(n)
	m.m2 += other.m2 + d*d*float64(m.n)*float64(other.n)/float64(n)
	if other.min < m.min {
		m.min = other.min
	}
	if other.max > m.max {
		m.max = other.max
	}
	m.n = n
}

// N returns the sample count.
func (m Moments) N() int64 { return m.n }

// Mean returns the running mean (0 when empty).
func (m Moments) Mean() float64 { return m.mean }

// Min returns the smallest sample (0 when empty).
func (m Moments) Min() float64 { return m.min }

// Max returns the largest sample (0 when empty).
func (m Moments) Max() float64 { return m.max }

// momentsJSON is the checkpoint wire form. Float64 fields round-trip
// bit-exactly through encoding/json (shortest-representation encoding),
// which is what lets a resumed fleet run reproduce a byte-identical
// report.
type momentsJSON struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// MarshalJSON implements json.Marshaler.
func (m Moments) MarshalJSON() ([]byte, error) {
	return json.Marshal(momentsJSON{N: m.n, Mean: m.mean, M2: m.m2, Min: m.min, Max: m.max})
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *Moments) UnmarshalJSON(data []byte) error {
	var w momentsJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("stats: moments: %w", err)
	}
	if w.N < 0 {
		return fmt.Errorf("stats: moments: negative count %d", w.N)
	}
	*m = Moments{n: w.N, mean: w.Mean, m2: w.M2, min: w.Min, max: w.Max}
	return nil
}
