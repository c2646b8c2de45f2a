package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Moments is a streaming, mergeable accumulator for count, mean and
// extrema. Adding one sample applies Welford's mean update; merging two
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

// Merge folds other into m with the pairwise mean update of Chan, Golub
// & LeVeque. Merging an empty side is the identity; with
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
	// becomes Welford's mean += d/n.
	m.mean += d * float64(other.n) / float64(n)
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
// report. Earlier checkpoints also carry an "m2" member (a second moment
// nothing read); decoding ignores it, so they resume unchanged.
type momentsJSON struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// MarshalJSON implements json.Marshaler.
func (m Moments) MarshalJSON() ([]byte, error) {
	return m.AppendJSON(nil)
}

// AppendJSON appends m's JSON, the bytes encoding/json writes for
// momentsJSON, to b. Like encoding/json it refuses a NaN or infinite
// float, returning b as given.
func (m Moments) AppendJSON(b []byte) ([]byte, error) {
	for _, f := range [...]float64{m.mean, m.min, m.max} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, fmt.Errorf("stats: moments: unsupported value %v", f)
		}
	}
	b = append(b, `{"n":`...)
	b = strconv.AppendInt(b, m.n, 10)
	b = append(b, `,"mean":`...)
	b = appendJSONFloat(b, m.mean)
	b = append(b, `,"min":`...)
	b = appendJSONFloat(b, m.min)
	b = append(b, `,"max":`...)
	b = appendJSONFloat(b, m.max)
	return append(b, '}'), nil
}

// appendJSONFloat appends finite f as encoding/json writes a float64:
// shortest decimal, in exponent form below 1e-6 and from 1e21, with the
// exponent's leading zero dropped.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
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
	*m = Moments{n: w.N, mean: w.Mean, min: w.Min, max: w.Max}
	return nil
}
