package stats

import (
	"encoding/json"
	"fmt"
	"math"
)

// DefaultSketchAlpha is the default relative accuracy of a quantile
// sketch: estimates are within 1% of the exact-sort quantile value.
const DefaultSketchAlpha = 0.01

// MinSketchAlpha is the finest relative accuracy a sketch accepts. It caps
// the grid's index range, and with it a dense span's memory (see Sketch),
// at about 365k indices per sign.
const MinSketchAlpha = 0.001

// sketchZeroThreshold is the magnitude below which a value lands in the
// sketch's zero bucket instead of a logarithmic one. It bounds the lowest
// bucket index the sketch can produce.
const sketchZeroThreshold = 1e-9

// Sketch is a deterministic, mergeable quantile sketch: integer counts on
// a fixed, data-independent logarithmic bucket grid (the DDSketch bucket
// family), mirrored for negative values plus a zero bucket for
// |v| ≤ 1e-9.
//
// Because the grid is fixed and the state is pure integer counts, the
// sketch state is a function of the inserted multiset alone: insertion
// order is invisible, and Merge (count addition) is exactly associative
// and commutative at the bit level — stronger than the shard-index-order
// merge discipline the fleet engine imposes anyway.
//
// Accuracy: buckets partition the value axis order-preservingly, so the
// bucket where the cumulative count reaches rank k provably contains the
// k-th smallest sample. The returned bucket representative is therefore
// within relative error Alpha of the exact nearest-rank quantile (within
// the zero threshold for near-zero values).
//
// Memory: each sign stores its counts densely, one uint32 per bucket index
// over a span that covers its occupied buckets, so a sketch costs 4 bytes
// per index its samples span — independent of how many samples are added,
// but inversely proportional to alpha. A second uint32 per index, the
// counts' high words, is allocated only when a count of that sign first
// passes 2³²−1, so counts stay exact to 2⁶⁴−1; both signs' high words
// hang off one pointer, which keeps the struct at 128 bytes. Add leaves
// headroom when it widens a span (at most doubling it); Merge and
// UnmarshalJSON widen to the exact occupied range. The grid's index range
// bounds every span: from the bucket just above the zero threshold to the
// bucket of math.MaxFloat64, about 730/ln γ ≈ 365/α indices per sign —
// [−1036, 35488], at most 146 KB per sign, at α = 0.01, and 1.46 MB per
// sign at MinSketchAlpha, below which NewSketch and UnmarshalJSON refuse
// an alpha. A NaN sample counts in the lowest negative bucket and ±Inf in
// the outermost bucket of its sign, so no sample can leave that range.
type Sketch struct {
	alpha    float64
	gamma    float64
	logGamma float64
	// minIndex and maxIndex bound the bucket indices the grid produces.
	minIndex int
	maxIndex int
	count    uint64
	zero     uint64
	pos      buckets
	neg      buckets
	// high holds the counts' high words of both signs. A count rarely
	// passes 2³²−1, so the table is allocated on the first carry, and each
	// sign's words on that sign's first carry.
	high *highWords
}

// buckets holds one sign's counts densely: the count of bucket lo+j is
// counts[j], plus the sign's high word j shifted left by 32 once that
// sign has high words. Every count up to 2⁶⁴−1 stays exact, and one past
// it wraps as a uint64 would.
type buckets struct {
	lo     int
	counts []uint32
}

// highWords is a sketch's side table of high words, each sign's parallel
// to that sign's counts and nil until one of them carries.
type highWords struct {
	pos, neg []uint32
}

// at returns the count of the bucket at offset j, given the sign's high
// words h (nil when it has none).
func (b *buckets) at(h []uint32, j int) uint64 {
	c := uint64(b.counts[j])
	if h != nil {
		c |= uint64(h[j]) << 32
	}
	return c
}

// highSlot returns where b's high words live in the side table,
// allocating the table; b is &s.pos or &s.neg.
func (s *Sketch) highSlot(b *buckets) *[]uint32 {
	if s.high == nil {
		s.high = new(highWords)
	}
	if b == &s.neg {
		return &s.high.neg
	}
	return &s.high.pos
}

// highOf returns b's high words, nil while none of its counts has
// carried.
func (s *Sketch) highOf(b *buckets) []uint32 {
	if s.high == nil {
		return nil
	}
	return *s.highSlot(b)
}

// addAt adds c to the count of b's bucket at offset j.
func (s *Sketch) addAt(b *buckets, j int, c uint64) {
	sum := uint64(b.counts[j]) + c&math.MaxUint32
	b.counts[j] = uint32(sum)
	if carry := sum>>32 + c>>32; carry != 0 {
		s.carry(b, j, carry)
	}
}

// carry adds c to b's high word at offset j, allocating the table and the
// sign's words on their first carry.
func (s *Sketch) carry(b *buckets, j int, c uint64) {
	h := s.highSlot(b)
	if *h == nil {
		*h = make([]uint32, len(b.counts))
	}
	(*h)[j] += uint32(c)
}

// widen extends b's range to cover [lo, hi], reallocating once to exactly
// the union of the old range and the new one.
func (s *Sketch) widen(b *buckets, lo, hi int) {
	if len(b.counts) == 0 {
		b.lo, b.counts = lo, make([]uint32, hi-lo+1)
		return
	}
	oldHi := b.lo + len(b.counts) - 1
	if lo >= b.lo && hi <= oldHi {
		return
	}
	lo, hi = min(lo, b.lo), max(hi, oldHi)
	b.counts = regrow(b.counts, b.lo-lo, hi-lo+1)
	if h := s.highOf(b); h != nil {
		*s.highSlot(b) = regrow(h, b.lo-lo, hi-lo+1)
	}
	b.lo = lo
}

// regrow returns s copied at offset off into a new slice of length n.
func regrow(s []uint32, off, n int) []uint32 {
	grown := make([]uint32, n)
	copy(grown[off:], s)
	return grown
}

// merge adds the counts of other's sign o to s's sign b, widening b to
// the exact union with o's occupied buckets: a merged sketch, like a fleet
// report's, carries none of the headroom Add leaves.
func (s *Sketch) merge(b *buckets, other *Sketch, o *buckets) {
	oh := other.highOf(o)
	first, last := -1, -1
	for j := range o.counts {
		if o.at(oh, j) != 0 {
			if first < 0 {
				first = j
			}
			last = j
		}
	}
	if first < 0 {
		return
	}
	s.widen(b, o.lo+first, o.lo+last)
	for j := first; j <= last; j++ {
		s.addAt(b, o.lo+j-b.lo, o.at(oh, j))
	}
}

// NewSketch returns an empty sketch with the given relative accuracy
// alpha in [MinSketchAlpha, 1).
func NewSketch(alpha float64) (*Sketch, error) {
	if err := CheckSketchAlpha(alpha); err != nil {
		return nil, err
	}
	return newSketch(alpha), nil
}

// CheckSketchAlpha reports whether alpha is a relative accuracy NewSketch
// accepts: one in [MinSketchAlpha, 1).
func CheckSketchAlpha(alpha float64) error {
	if !(alpha >= MinSketchAlpha && alpha < 1) {
		return fmt.Errorf("stats: sketch alpha %v outside [%v, 1)", alpha, MinSketchAlpha)
	}
	return nil
}

// newSketch builds the sketch; gamma and logGamma are recomputed from
// alpha with the exact same operations on every construction (including
// checkpoint restore), so equal alphas always yield bit-equal grids.
func newSketch(alpha float64) *Sketch {
	gamma := (1 + alpha) / (1 - alpha)
	s := &Sketch{
		alpha:    alpha,
		gamma:    gamma,
		logGamma: math.Log(gamma),
	}
	s.minIndex = s.bucketIndex(math.Nextafter(sketchZeroThreshold, math.Inf(1)))
	s.maxIndex = s.bucketIndex(math.MaxFloat64)
	return s
}

// bucketIndex maps a finite magnitude v > sketchZeroThreshold to its
// bucket: i such that v ∈ (γ^(i−1), γ^i].
func (s *Sketch) bucketIndex(v float64) int {
	return int(math.Ceil(math.Log(v) / s.logGamma))
}

// clampedIndex is bucketIndex for any magnitude above the zero threshold:
// +Inf maps to the grid's top bucket and NaN to its bottom one.
func (s *Sketch) clampedIndex(v float64) int {
	f := math.Ceil(math.Log(v) / s.logGamma)
	switch {
	case f >= float64(s.maxIndex):
		return s.maxIndex
	case f >= float64(s.minIndex):
		return int(f)
	default:
		return s.minIndex
	}
}

// addTo counts one sample in bucket i of one sign. A bucket outside the
// span widens it past i by the span's current length, within the grid's
// range, so a run of new extremes reallocates O(log span) times rather
// than once per bucket.
//
//etrain:hotpath
func (s *Sketch) addTo(b *buckets, i int) {
	switch n := len(b.counts); {
	case n == 0:
		s.widen(b, i, i)
	case i < b.lo:
		s.widen(b, max(i-n, s.minIndex), b.lo)
	case i >= b.lo+n:
		s.widen(b, b.lo, min(i+n, s.maxIndex))
	}
	j := i - b.lo
	if b.counts[j]++; b.counts[j] == 0 {
		s.carry(b, j, 1)
	}
}

// representative returns the mid-bucket value 2γ^i/(γ+1), which is within
// relative alpha of every value in bucket i.
func (s *Sketch) representative(i int) float64 {
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// Add inserts one sample.
//
//etrain:hotpath
func (s *Sketch) Add(v float64) {
	s.count++
	switch {
	case math.Abs(v) <= sketchZeroThreshold:
		s.zero++
	case v > 0:
		s.addTo(&s.pos, s.clampedIndex(v))
	default:
		s.addTo(&s.neg, s.clampedIndex(-v))
	}
}

// Count returns the number of samples the sketch holds.
func (s *Sketch) Count() uint64 { return s.count }

// Merge folds other into s by adding bucket counts. Both sketches must
// share the same alpha (the same grid).
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil || other.count == 0 {
		return nil
	}
	if s.alpha != other.alpha {
		return fmt.Errorf("stats: merging sketches with different alphas %v and %v", s.alpha, other.alpha)
	}
	s.count += other.count
	s.zero += other.zero
	s.merge(&s.pos, other, &other.pos)
	s.merge(&s.neg, other, &other.neg)
	return nil
}

// Reset empties the sketch and keeps its grid and its spans' memory, so a
// reused sketch counts the samples of another run without growing again.
func (s *Sketch) Reset() {
	s.count, s.zero = 0, 0
	clear(s.pos.counts)
	clear(s.neg.counts)
	s.high = nil
}

// Quantile returns the p-th percentile (0–100) under the same
// nearest-rank rule as Percentile: the estimate's bucket contains the
// sample of rank ⌈p/100·n⌉, so the returned value is within relative
// Alpha of the exact-sort answer.
func (s *Sketch) Quantile(p float64) (float64, error) {
	if s.count == 0 {
		return 0, ErrEmpty
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := uint64(math.Ceil(p / 100 * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.count {
		rank = s.count
	}

	// Walk buckets in ascending value order: negatives from largest
	// magnitude down, then zero, then positives up. An empty bucket never
	// lifts cum to rank first, so the bucket returned holds a sample.
	cum := uint64(0)
	nh, ph := s.highOf(&s.neg), s.highOf(&s.pos)
	for j := len(s.neg.counts) - 1; j >= 0; j-- {
		cum += s.neg.at(nh, j)
		if cum >= rank {
			return -s.representative(s.neg.lo + j), nil
		}
	}
	cum += s.zero
	if cum >= rank {
		return 0, nil
	}
	for j := range s.pos.counts {
		cum += s.pos.at(ph, j)
		if cum >= rank {
			return s.representative(s.pos.lo + j), nil
		}
	}
	// Unreachable: cumulative counts sum to s.count ≥ rank.
	return 0, fmt.Errorf("stats: sketch rank %d beyond %d counted samples", rank, cum)
}

// sketchBucketJSON is one serialized bucket.
type sketchBucketJSON struct {
	Index int    `json:"i"`
	Count uint64 `json:"c"`
}

// sketchJSON is the checkpoint wire form: alpha plus integer counts. The
// grid constants are recomputed from alpha on load, so a restored sketch
// is bit-equal to the one serialized.
type sketchJSON struct {
	Alpha float64            `json:"alpha"`
	Count uint64             `json:"count"`
	Zero  uint64             `json:"zero"`
	Pos   []sketchBucketJSON `json:"pos,omitempty"`
	Neg   []sketchBucketJSON `json:"neg,omitempty"`
}

// bucketsJSON lists b's occupied buckets in ascending index order.
func (s *Sketch) bucketsJSON(b *buckets) []sketchBucketJSON {
	var out []sketchBucketJSON
	h := s.highOf(b)
	for j := range b.counts {
		if c := b.at(h, j); c != 0 {
			out = append(out, sketchBucketJSON{Index: b.lo + j, Count: c})
		}
	}
	return out
}

// MarshalJSON implements json.Marshaler with buckets in ascending index
// order, so equal sketch states serialize to equal bytes.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	return json.Marshal(sketchJSON{
		Alpha: s.alpha,
		Count: s.count,
		Zero:  s.zero,
		Pos:   s.bucketsJSON(&s.pos),
		Neg:   s.bucketsJSON(&s.neg),
	})
}

// restoreBuckets rebuilds one sign's counts from its serialized form,
// rejecting indices the grid cannot produce: a checkpoint is outside
// input, and a dense span's memory follows its index range. The span
// covers the non-zero buckets only, so a zero-count entry is checked
// against the grid and otherwise skipped. It returns the number of
// samples restored.
func (s *Sketch) restoreBuckets(dst *buckets, src []sketchBucketJSON) (uint64, error) {
	lo, hi := s.maxIndex+1, s.minIndex-1
	for _, b := range src {
		if b.Index < s.minIndex || b.Index > s.maxIndex {
			return 0, fmt.Errorf("stats: sketch bucket index %d outside the grid's [%d, %d]", b.Index, s.minIndex, s.maxIndex)
		}
		if b.Count != 0 {
			lo, hi = min(lo, b.Index), max(hi, b.Index)
		}
	}
	if lo > hi {
		return 0, nil
	}
	s.widen(dst, lo, hi)
	total := uint64(0)
	for _, b := range src {
		if b.Count != 0 {
			s.addAt(dst, b.Index-lo, b.Count)
			total += b.Count
		}
	}
	return total, nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	var w sketchJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("stats: sketch: %w", err)
	}
	// The alpha check bounds the grid, and so every restored span, before
	// any bucket is read.
	if err := CheckSketchAlpha(w.Alpha); err != nil {
		return err
	}
	restored := newSketch(w.Alpha)
	restored.count = w.Count
	restored.zero = w.Zero
	pos, err := restored.restoreBuckets(&restored.pos, w.Pos)
	if err != nil {
		return err
	}
	neg, err := restored.restoreBuckets(&restored.neg, w.Neg)
	if err != nil {
		return err
	}
	if total := w.Zero + pos + neg; total != w.Count {
		return fmt.Errorf("stats: sketch bucket counts sum to %d, header says %d", total, w.Count)
	}
	*s = *restored
	return nil
}
