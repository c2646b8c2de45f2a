package stats

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"etrain/internal/randx"
)

func newTestSketch(t *testing.T, alpha float64) *Sketch {
	t.Helper()
	s, err := NewSketch(alpha)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sketchOf(samples []float64) *Sketch {
	s := newSketch(DefaultSketchAlpha)
	for _, v := range samples {
		s.Add(v)
	}
	return s
}

// sketchBytes serializes a sketch canonically; two sketches are
// state-equal iff their bytes are equal (buckets serialize in sorted
// index order).
func sketchBytes(t *testing.T, s *Sketch) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestNewSketchValidatesAlpha(t *testing.T) {
	for _, alpha := range []float64{0, 1, -0.1, 1.5, math.NaN(), 1e-12, math.Nextafter(MinSketchAlpha, 0)} {
		if _, err := NewSketch(alpha); err == nil {
			t.Errorf("alpha %v accepted", alpha)
		}
	}
	s := newTestSketch(t, MinSketchAlpha)
	if n := s.maxIndex - s.minIndex + 1; n > 366_000 {
		t.Fatalf("grid at the alpha floor spans %d indices, want at most 366000", n)
	}
}

func TestSketchEmptyQuantile(t *testing.T) {
	s := newTestSketch(t, DefaultSketchAlpha)
	if _, err := s.Quantile(50); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

// TestSketchMergeAssociativeAndCommutative is the satellite's
// associativity property, and it holds bit-exactly: the sketch state is
// integer counts on a fixed grid, so (A⊕B)⊕C, A⊕(B⊕C) and any
// permutation all land in the same state.
func TestSketchMergeAssociativeAndCommutative(t *testing.T) {
	prop := func(seedA, seedB, seedC int64, nA, nB, nC uint8) bool {
		a1 := sketchOf(sampleSet(seedA, int(nA)))
		b1 := sketchOf(sampleSet(seedB, int(nB)))
		c1 := sketchOf(sampleSet(seedC, int(nC)))
		a2 := sketchOf(sampleSet(seedA, int(nA)))
		b2 := sketchOf(sampleSet(seedB, int(nB)))
		c2 := sketchOf(sampleSet(seedC, int(nC)))

		// left = (A⊕B)⊕C
		if err := a1.Merge(b1); err != nil {
			return false
		}
		if err := a1.Merge(c1); err != nil {
			return false
		}
		// right = A⊕(B⊕C), merged into C in reverse order to cover
		// commutativity too.
		if err := c2.Merge(b2); err != nil {
			return false
		}
		if err := c2.Merge(a2); err != nil {
			return false
		}
		return sketchBytes(t, a1) == sketchBytes(t, c2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSketchInsertionOrderInvariant: the state is a pure function of the
// inserted multiset — reversing the insertion order changes nothing.
func TestSketchInsertionOrderInvariant(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		samples := sampleSet(seed, int(n))
		forward := sketchOf(samples)
		backward := newSketch(DefaultSketchAlpha)
		for i := len(samples) - 1; i >= 0; i-- {
			backward.Add(samples[i])
		}
		return sketchBytes(t, forward) == sketchBytes(t, backward)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSketchQuantileWithinRankErrorBound verifies the accuracy contract
// against an exact sort on small inputs: the estimate's bucket contains
// the exact nearest-rank sample, so the estimate is within relative Alpha
// of it (plus the zero-bucket threshold for near-zero values).
func TestSketchQuantileWithinRankErrorBound(t *testing.T) {
	percentiles := []float64{0, 1, 10, 25, 50, 75, 90, 99, 100}
	prop := func(seed int64, n uint8) bool {
		samples := sampleSet(seed, int(n)+1)
		s := sketchOf(samples)
		for _, p := range percentiles {
			got, err := s.Quantile(p)
			if err != nil {
				return false
			}
			exact, err := Percentile(samples, p)
			if err != nil {
				return false
			}
			tol := s.alpha*math.Abs(exact) + sketchZeroThreshold
			if math.Abs(got-exact) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSketchShardedMergeMatchesSingleSketch: splitting the samples into
// consecutive shards, sketching each and merging in shard-index order is
// state-identical to one sketch over everything — the fleet engine's
// memory-bounded path loses nothing.
func TestSketchShardedMergeMatchesSingleSketch(t *testing.T) {
	prop := func(seed int64, n uint8, shardSeed int64) bool {
		samples := sampleSet(seed, int(n)+1)
		whole := sketchOf(samples)
		shards := shardBoundaries(shardSeed, len(samples))
		merged := newSketch(DefaultSketchAlpha)
		for s := 0; s+1 < len(shards); s++ {
			if err := merged.Merge(sketchOf(samples[shards[s]:shards[s+1]])); err != nil {
				return false
			}
		}
		return sketchBytes(t, whole) == sketchBytes(t, merged)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSketchMergeRejectsAlphaMismatch(t *testing.T) {
	a := newTestSketch(t, 0.01)
	b := newTestSketch(t, 0.02)
	b.Add(1)
	if err := a.Merge(b); err == nil {
		t.Fatal("alpha mismatch accepted")
	}
}

func TestSketchJSONRoundTrip(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		s := sketchOf(sampleSet(seed, int(n)))
		data, err := json.Marshal(s)
		if err != nil {
			return false
		}
		var back Sketch
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		again, err := json.Marshal(&back)
		if err != nil {
			return false
		}
		return string(data) == string(again)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSketchUnmarshalRejectsInconsistentCounts(t *testing.T) {
	var s Sketch
	bad := `{"alpha":0.01,"count":5,"zero":1,"pos":[{"i":3,"c":2}]}`
	if err := json.Unmarshal([]byte(bad), &s); err == nil {
		t.Fatal("inconsistent bucket sum accepted")
	}
}

func TestSketchRandomizedAgainstExactMedian(t *testing.T) {
	src := randx.New(11)
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = src.Normal(100, 25)
	}
	s := sketchOf(samples)
	got, err := s.Quantile(50)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Percentile(samples, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-exact) > s.alpha*math.Abs(exact)+sketchZeroThreshold {
		t.Fatalf("median %v vs exact %v beyond alpha bound", got, exact)
	}
}

// TestSketchGridRange pins the index range the default grid can produce:
// the bound that makes a dense span's memory finite.
func TestSketchGridRange(t *testing.T) {
	s := newTestSketch(t, DefaultSketchAlpha)
	if s.minIndex != -1036 || s.maxIndex != 35488 {
		t.Fatalf("grid range [%d, %d], want [-1036, 35488]", s.minIndex, s.maxIndex)
	}
	for _, v := range []float64{math.Nextafter(sketchZeroThreshold, 1), 1, math.MaxFloat64} {
		if i := s.bucketIndex(v); i < s.minIndex || i > s.maxIndex {
			t.Fatalf("bucketIndex(%g) = %d outside [%d, %d]", v, i, s.minIndex, s.maxIndex)
		}
	}
}

// TestSketchNonFiniteSamplesClamp checks that NaN and ±Inf land inside the
// grid: ±Inf in the outermost bucket of its sign, NaN in the lowest
// negative one, so the dense span never exceeds the grid's range.
func TestSketchNonFiniteSamplesClamp(t *testing.T) {
	s := newTestSketch(t, DefaultSketchAlpha)
	s.Add(math.Inf(1))
	s.Add(math.Inf(-1))
	s.Add(math.NaN())
	s.Add(1)
	if got := s.pos.lo + len(s.pos.counts) - 1; got != s.maxIndex {
		t.Fatalf("+Inf top bucket %d, want %d", got, s.maxIndex)
	}
	if s.neg.lo != s.minIndex || s.neg.lo+len(s.neg.counts)-1 != s.maxIndex {
		t.Fatalf("negative span [%d, %d], want [%d, %d]", s.neg.lo, s.neg.lo+len(s.neg.counts)-1, s.minIndex, s.maxIndex)
	}
	if s.neg.counts[0] != 1 || s.neg.counts[len(s.neg.counts)-1] != 1 {
		t.Fatal("NaN or -Inf not counted at its clamped bucket")
	}
	// Ascending value order: -Inf, NaN (just below zero), 1, +Inf.
	for _, c := range []struct{ p, want float64 }{
		{25, -s.representative(s.maxIndex)},
		{50, -s.representative(s.minIndex)},
		{75, s.representative(s.bucketIndex(1))},
		{100, s.representative(s.maxIndex)},
	} {
		got, err := s.Quantile(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("Quantile(%v) = %g, want %g", c.p, got, c.want)
		}
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("clamped sketch does not round-trip: %v", err)
	}
}

// TestSketchUnmarshalRejectsIndicesOffGrid feeds checkpoint JSON whose
// bucket indices the grid cannot produce; restoring it would size a span
// by outside input.
func TestSketchUnmarshalRejectsIndicesOffGrid(t *testing.T) {
	for _, bad := range []string{
		`{"alpha":0.01,"count":1,"zero":0,"pos":[{"i":35489,"c":1}]}`,
		`{"alpha":0.01,"count":1,"zero":0,"pos":[{"i":-1037,"c":1}]}`,
		`{"alpha":0.01,"count":2,"zero":0,"neg":[{"i":-9223372036854775808,"c":1},{"i":9223372036854775807,"c":1}]}`,
		`{"alpha":0.01,"count":0,"zero":0,"neg":[{"i":40000,"c":0}]}`,
	} {
		var s Sketch
		if err := json.Unmarshal([]byte(bad), &s); err == nil {
			t.Errorf("accepted off-grid bucket: %s", bad)
		}
	}
	var s Sketch
	edge := `{"alpha":0.01,"count":2,"zero":0,"pos":[{"i":-1036,"c":1},{"i":35488,"c":1}]}`
	if err := json.Unmarshal([]byte(edge), &s); err != nil {
		t.Fatalf("rejected the grid's own edge buckets: %v", err)
	}
}

// TestSketchUnmarshalZeroCountBuckets restores in-grid zero-count buckets
// on either side of the occupied span, which the span does not cover: they
// must be skipped, not indexed, and drop out of the re-serialized form.
func TestSketchUnmarshalZeroCountBuckets(t *testing.T) {
	want := `{"alpha":0.01,"count":2,"zero":0,"pos":[{"i":5,"c":1}],"neg":[{"i":7,"c":1}]}`
	for _, in := range []string{
		`{"alpha":0.01,"count":2,"zero":0,"pos":[{"i":5,"c":1},{"i":6,"c":0}],"neg":[{"i":7,"c":1}]}`,
		`{"alpha":0.01,"count":2,"zero":0,"pos":[{"i":4,"c":0},{"i":5,"c":1}],"neg":[{"i":7,"c":1}]}`,
		`{"alpha":0.01,"count":2,"zero":0,"pos":[{"i":35488,"c":0},{"i":5,"c":1},{"i":-1036,"c":0}],"neg":[{"i":-1036,"c":0},{"i":7,"c":1},{"i":35488,"c":0}]}`,
		`{"alpha":0.01,"count":2,"zero":0,"pos":[{"i":5,"c":1},{"i":9,"c":0}],"neg":[{"i":3,"c":0},{"i":7,"c":1},{"i":1,"c":0}]}`,
	} {
		var s Sketch
		if err := json.Unmarshal([]byte(in), &s); err != nil {
			t.Fatalf("rejected in-grid zero-count buckets: %v\n%s", err, in)
		}
		if got := sketchBytes(t, &s); got != want {
			t.Fatalf("restored %s\nas %s, want %s", in, got, want)
		}
	}
}

// TestSketchUnmarshalRejectsAlphaBelowFloor restores checkpoints whose
// alpha makes the grid, and so a span sized by two far-apart in-grid
// indices, too large to allocate: the alpha check must refuse them before
// any bucket is read.
func TestSketchUnmarshalRejectsAlphaBelowFloor(t *testing.T) {
	for _, bad := range []string{
		`{"alpha":1e-12,"count":2,"zero":0,"pos":[{"i":-1,"c":1},{"i":300000000000000,"c":1}]}`,
		`{"alpha":1e-12,"count":2,"zero":0,"neg":[{"i":-10000000000000,"c":1},{"i":300000000000000,"c":1}]}`,
		`{"alpha":0.0009,"count":1,"zero":0,"pos":[{"i":5,"c":1}]}`,
	} {
		var s Sketch
		if err := json.Unmarshal([]byte(bad), &s); err == nil {
			t.Errorf("accepted alpha below MinSketchAlpha: %s", bad)
		}
	}
}

// TestSketchMergeDropsAddHeadroom checks the memory split between the two
// growth paths: Add leaves headroom past a new extreme, while Merge (how a
// fleet report is built) widens to exactly the occupied buckets. Neither
// shows in the serialized form.
func TestSketchMergeDropsAddHeadroom(t *testing.T) {
	s := newTestSketch(t, DefaultSketchAlpha)
	for v := 1.0; v < 1e3; v *= 1.5 {
		s.Add(v)
		s.Add(-v)
	}
	lo, hi := s.bucketIndex(1), s.bucketIndex(math.Pow(1.5, 17))
	if n := len(s.pos.counts); n <= hi-lo+1 {
		t.Fatalf("Add kept a span of %d buckets, want headroom past the %d occupied", n, hi-lo+1)
	}
	m := newTestSketch(t, DefaultSketchAlpha)
	if err := m.Merge(s); err != nil {
		t.Fatal(err)
	}
	for _, b := range []*buckets{&m.pos, &m.neg} {
		if b.lo != lo || len(b.counts) != hi-lo+1 {
			t.Fatalf("merged span [%d, %d], want exactly [%d, %d]", b.lo, b.lo+len(b.counts)-1, lo, hi)
		}
	}
	a, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("headroom leaked into JSON:\n%s\n%s", a, b)
	}
}

// TestSketchCountsPastTwoTo32 carries bucket counts past 2³²−1, where a
// count's high word takes over, through each path that adds to one: Add
// onto a restored count of 2³²−1, UnmarshalJSON of 2³³+7, and Merge, in
// both directions and into a bucket at 2³²−1. Counts, quantiles and the
// JSON round trip must stay exact.
func TestSketchCountsPastTwoTo32(t *testing.T) {
	restore := func(js string) *Sketch {
		t.Helper()
		var s Sketch
		if err := json.Unmarshal([]byte(js), &s); err != nil {
			t.Fatal(err)
		}
		return &s
	}
	// a: a restored 2³²−1 in bucket 5, then three Adds there.
	a := restore(`{"alpha":0.01,"count":4294967296,"zero":0,"pos":[{"i":3,"c":1},{"i":5,"c":4294967295}]}`)
	for range 3 {
		a.Add(a.representative(5))
	}
	if got, want := sketchBytes(t, a), `{"alpha":0.01,"count":4294967299,"zero":0,"pos":[{"i":3,"c":1},{"i":5,"c":4294967298}]}`; got != want {
		t.Fatalf("Add past 2^32-1: %s, want %s", got, want)
	}
	// b: a restored 2³³+7 in bucket 7, outside a's span.
	const bJSON = `{"alpha":0.01,"count":8589934600,"zero":1,"pos":[{"i":7,"c":8589934599}]}`
	b := restore(bJSON)
	if got := sketchBytes(t, b); got != bJSON {
		t.Fatalf("restored 2^33+7: %s", got)
	}
	const merged = `{"alpha":0.01,"count":12884901899,"zero":1,"pos":[{"i":3,"c":1},{"i":5,"c":4294967298},{"i":7,"c":8589934599}]}`
	ab, ba := restore(sketchBytes(t, a)), restore(bJSON)
	if err := ab.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := ba.Merge(a); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Sketch{ab, ba, restore(merged)} {
		if got := sketchBytes(t, s); got != merged {
			t.Fatalf("merged %s, want %s", got, merged)
		}
		if s.Count() != 12884901899 {
			t.Fatalf("Count() = %d", s.Count())
		}
		occupied := []struct {
			v float64
			c uint64
		}{{0, 1}, {s.representative(3), 1}, {s.representative(5), 4294967298}, {s.representative(7), 8589934599}}
		for _, p := range []float64{0, 1e-9, 1e-8, 10, 33.3, 33.34, 50, 99.99999999, 100} {
			rank := uint64(math.Max(1, math.Ceil(p/100*float64(s.Count()))))
			want, cum := 0.0, uint64(0)
			for _, o := range occupied {
				if cum += o.c; cum >= rank {
					want = o.v
					break
				}
			}
			got, err := s.Quantile(p)
			if err != nil || got != want {
				t.Fatalf("Quantile(%v) = %v, %v; want %v", p, got, err, want)
			}
		}
	}
	// A merge whose low words overflow: 2³²−1 plus one sample.
	c := restore(`{"alpha":0.01,"count":4294967295,"zero":0,"pos":[{"i":5,"c":4294967295}]}`)
	one := newTestSketch(t, DefaultSketchAlpha)
	one.Add(one.representative(5))
	if err := c.Merge(one); err != nil {
		t.Fatal(err)
	}
	if got, want := sketchBytes(t, c), `{"alpha":0.01,"count":4294967296,"zero":0,"pos":[{"i":5,"c":4294967296}]}`; got != want {
		t.Fatalf("merge into 2^32-1: %s, want %s", got, want)
	}
}

// TestSketchFitsIn128Bytes pins the struct's size class: both signs' high
// words hang off one pointer, since almost no sketch ever allocates them.
// A fleet report holds 12 sketches and a run 9 more.
func TestSketchFitsIn128Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Sketch{}); n > 128 {
		t.Fatalf("Sketch is %d bytes, want at most 128", n)
	}
}

// TestSketchHighWordsPerSign carries a count past 2³²−1 in each sign,
// through Add and through Merge: each sign's high words must stay its
// own, whichever sign carried first.
func TestSketchHighWordsPerSign(t *testing.T) {
	const (
		negOnly = `{"alpha":0.01,"count":4294967295,"zero":0,"neg":[{"i":4,"c":4294967295}]}`
		posOnly = `{"alpha":0.01,"count":4294967296,"zero":0,"pos":[{"i":2,"c":1},{"i":9,"c":4294967295}]}`
	)
	var n, p Sketch
	if err := json.Unmarshal([]byte(negOnly), &n); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(posOnly), &p); err != nil {
		t.Fatal(err)
	}
	n.Add(-n.representative(4)) // the negative sign carries first
	if err := n.Merge(&p); err != nil {
		t.Fatal(err)
	}
	n.Add(n.representative(9))
	const want = `{"alpha":0.01,"count":8589934593,"zero":0,"pos":[{"i":2,"c":1},{"i":9,"c":4294967296}],"neg":[{"i":4,"c":4294967296}]}`
	if got := sketchBytes(t, &n); got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
	// The median's rank is 2³²+1: one past the negative bucket's count.
	if q, err := n.Quantile(50); err != nil || q != n.representative(2) {
		t.Fatalf("Quantile(50) = %v, %v; want %v", q, err, n.representative(2))
	}
}

// TestSketchReset empties a sketch: it must then serialize, count and
// answer quantiles as a new one does, and counting the same samples again
// must allocate nothing, since Reset keeps the spans.
func TestSketchReset(t *testing.T) {
	r := randx.New(5)
	samples := make([]float64, 2000)
	for i := range samples {
		samples[i] = (r.Float64() - 0.3) * 1e3
	}
	s := sketchOf(samples)
	var carried Sketch
	if err := json.Unmarshal([]byte(`{"alpha":0.01,"count":4294967295,"zero":0,"pos":[{"i":5,"c":4294967295}]}`), &carried); err != nil {
		t.Fatal(err)
	}
	carried.Add(carried.representative(5))
	for _, sk := range []*Sketch{s, &carried} {
		sk.Reset()
		if got, want := sketchBytes(t, sk), sketchBytes(t, newSketch(DefaultSketchAlpha)); got != want {
			t.Fatalf("reset sketch %s, want %s", got, want)
		}
		if _, err := sk.Quantile(50); !errors.Is(err, ErrEmpty) {
			t.Fatalf("reset sketch Quantile err = %v, want ErrEmpty", err)
		}
	}
	refill := func() {
		s.Reset()
		for _, v := range samples {
			s.Add(v)
		}
	}
	if allocs := testing.AllocsPerRun(10, refill); allocs != 0 {
		t.Errorf("refilling a reset sketch allocated %v times, want 0", allocs)
	}
	if got, want := sketchBytes(t, s), sketchBytes(t, sketchOf(samples)); got != want {
		t.Fatalf("refilled sketch %s, want %s", got, want)
	}
}

// referenceSketchJSON is the encoding MarshalJSON had before AppendJSON:
// encoding/json over sketchJSON, with a bucket slice per sign.
func referenceSketchJSON(t *testing.T, s *Sketch) string {
	t.Helper()
	list := func(b *buckets) []sketchBucketJSON {
		var out []sketchBucketJSON
		h := s.highOf(b)
		for j := range b.counts {
			if c := b.at(h, j); c != 0 {
				out = append(out, sketchBucketJSON{Index: b.lo + j, Count: c})
			}
		}
		return out
	}
	data, err := json.Marshal(sketchJSON{Alpha: s.alpha, Count: s.count, Zero: s.zero, Pos: list(&s.pos), Neg: list(&s.neg)})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestSketchAppendJSONMatchesReference pins the append encoder to the
// struct encoding it replaced, on sketches with negative buckets, spans
// with zero-count buckets (a reset sketch counting again, and gaps
// between samples), carried high words, one sign only, and none.
func TestSketchAppendJSONMatchesReference(t *testing.T) {
	var carried Sketch
	if err := json.Unmarshal([]byte(`{"alpha":0.01,"count":8589934601,"zero":1,"pos":[{"i":7,"c":8589934599}],"neg":[{"i":-3,"c":1}]}`), &carried); err != nil {
		t.Fatal(err)
	}
	carried.Add(-carried.representative(40))
	reset := sketchOf(sampleSet(3, 500))
	reset.Reset()
	reset.Add(12)
	reset.Add(-0.5)
	cases := map[string]*Sketch{
		"mixed":    sketchOf(sampleSet(1, 1000)),
		"gaps":     sketchOf([]float64{1e-6, 3, 1e9, -2, -7e5, 0}),
		"reset":    reset,
		"carried":  &carried,
		"positive": sketchOf([]float64{1, 2, 3}),
		"negative": sketchOf([]float64{-1, -2e-8}),
		"zero":     sketchOf([]float64{0, 1e-10}),
		"empty":    newSketch(0.003),
	}
	for name, s := range cases {
		want := referenceSketchJSON(t, s)
		if got := string(s.AppendJSON([]byte("x"))); got != "x"+want {
			t.Errorf("%s: AppendJSON = %s, want x%s", name, got, want)
		}
		if got := sketchBytes(t, s); got != want {
			t.Errorf("%s: json.Marshal = %s, want %s", name, got, want)
		}
	}
}

// TestSketchMultiMergeMatchesPairwise merges several sketches at once
// into an empty sketch and into one with a span of its own, and compares
// each with the same merges made one source at a time: the JSON must be
// equal, and the merge into an empty sketch must allocate one span per
// sign, where pairwise merges regrow a sign per source that widens it.
func TestSketchMultiMergeMatchesPairwise(t *testing.T) {
	srcs := []*Sketch{
		sketchOf(sampleSet(11, 300)),
		nil,
		sketchOf([]float64{1e9, -1e9, 0}),
		sketchOf([]float64{1e-7, 5e-7}),
		newSketch(DefaultSketchAlpha),
		sketchOf(sampleSet(12, 40)),
	}
	for _, base := range [][]float64{nil, {0.5, -3}} {
		multi, pairwise := sketchOf(base), sketchOf(base)
		if err := multi.Merge(srcs...); err != nil {
			t.Fatal(err)
		}
		for _, s := range srcs {
			if err := pairwise.Merge(s); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := sketchBytes(t, multi), sketchBytes(t, pairwise); got != want {
			t.Fatalf("base %v: multi-source merge %s, pairwise %s", base, got, want)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := newSketch(DefaultSketchAlpha).Merge(srcs...); err != nil {
			t.Fatal(err)
		}
	})
	// The sketch itself, then one span per sign.
	if allocs != 3 {
		t.Errorf("a multi-source merge into a new sketch allocates %v times, want 3", allocs)
	}
	if err := newSketch(0.02).Merge(srcs[0], newSketch(0.02)); err == nil {
		t.Error("a merge across alphas was accepted")
	}
}
