package stats

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"etrain/internal/randx"
)

// sampleSet derives a bounded, deterministic sample slice from a seed:
// mixed magnitudes (including negatives and exact zeros) without the
// float64 extremes that would overflow a mean accumulator.
func sampleSet(seed int64, n int) []float64 {
	src := randx.New(seed)
	out := make([]float64, n)
	for i := range out {
		switch src.Intn(8) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = -src.Float64() * 1e4
		default:
			out[i] = src.Float64() * 1e6
		}
	}
	return out
}

func TestMomentsEmpty(t *testing.T) {
	var m Moments
	if m.N() != 0 || m.Mean() != 0 || m.Min() != 0 || m.Max() != 0 {
		t.Fatalf("zero Moments not empty: %+v", m)
	}
	var other Moments
	other.Add(3)
	m.Merge(other)
	if m != other {
		t.Fatalf("merge into empty is not identity: %+v vs %+v", m, other)
	}
	before := other
	other.Merge(Moments{})
	if other != before {
		t.Fatalf("merging an empty side changed the accumulator: %+v vs %+v", other, before)
	}
}

// TestMomentsAddIsSingletonMergeBitForBit is the satellite's bit-exactness
// property: the sequential Welford fold (Add) and the Chan merge of
// singleton accumulators, folded in the same index order, produce the same
// bits — they are one code path by construction, and this pins it.
func TestMomentsAddIsSingletonMergeBitForBit(t *testing.T) {
	prop := func(seed int64, count uint8) bool {
		samples := sampleSet(seed, int(count))
		var byAdd, byMerge Moments
		for _, v := range samples {
			byAdd.Add(v)
			byMerge.Merge(Single(v))
		}
		return byAdd == byMerge
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMomentsShardedMergeDeterministic checks the fleet engine's merge
// discipline: folding per-shard accumulators in shard-index order is a
// pure function of the samples and the shard boundaries — recomputing it
// yields identical bits, no matter how the shards were sized.
func TestMomentsShardedMergeDeterministic(t *testing.T) {
	prop := func(seed int64, count uint8, shardSeed int64) bool {
		samples := sampleSet(seed, int(count)+1)
		shards := shardBoundaries(shardSeed, len(samples))
		fold := func() Moments {
			var total Moments
			for s := 0; s+1 < len(shards); s++ {
				var shard Moments
				for _, v := range samples[shards[s]:shards[s+1]] {
					shard.Add(v)
				}
				total.Merge(shard)
			}
			return total
		}
		return fold() == fold()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// shardBoundaries derives a random partition of [0, n] into consecutive
// shard boundaries, always including 0 and n.
func shardBoundaries(seed int64, n int) []int {
	src := randx.New(seed)
	bounds := []int{0}
	for at := 0; at < n; {
		at += 1 + src.Intn(n)
		if at > n {
			at = n
		}
		bounds = append(bounds, at)
	}
	if bounds[len(bounds)-1] != n {
		bounds = append(bounds, n)
	}
	return bounds
}

// TestMomentsShardedMergeMatchesTwoPass bounds the numerical error of the
// shard-and-merge fold against the two-pass reference (Summarize).
func TestMomentsShardedMergeMatchesTwoPass(t *testing.T) {
	prop := func(seed int64, count uint8, shardSeed int64) bool {
		samples := sampleSet(seed, int(count)+2)
		shards := shardBoundaries(shardSeed, len(samples))
		var total Moments
		for s := 0; s+1 < len(shards); s++ {
			var shard Moments
			for _, v := range samples[shards[s]:shards[s+1]] {
				shard.Add(v)
			}
			total.Merge(shard)
		}
		ref, err := Summarize(samples)
		if err != nil {
			return false
		}
		if total.N() != int64(ref.N) || total.Min() != ref.Min || total.Max() != ref.Max {
			return false
		}
		const rel = 1e-9
		meanTol := rel * (math.Abs(ref.Mean) + 1)
		return math.Abs(total.Mean()-ref.Mean) <= meanTol
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMomentsJSONRoundTrip checks the checkpoint wire form restores the
// accumulator bit-for-bit: resumed fleet runs depend on it.
func TestMomentsJSONRoundTrip(t *testing.T) {
	prop := func(seed int64, count uint8) bool {
		var m Moments
		for _, v := range sampleSet(seed, int(count)) {
			m.Add(v)
		}
		data, err := json.Marshal(m)
		if err != nil {
			return false
		}
		var back Moments
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return m == back
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMomentsUnmarshalRejectsNegativeCount(t *testing.T) {
	var m Moments
	if err := json.Unmarshal([]byte(`{"n":-1}`), &m); err == nil {
		t.Fatal("negative count accepted")
	}
}

// TestMomentsAppendJSONMatchesEncodingJSON pins the append encoder, which
// MarshalJSON and fleet snapshots use, to encoding/json's bytes for the
// wire struct: floats of every magnitude, both exponent cutoffs, signed
// zeros and integers. A non-finite float is refused, as encoding/json
// refuses it, and leaves the buffer as given.
func TestMomentsAppendJSONMatchesEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99e-7, -1e-7, 1e-300, 5e-324,
		1e20, 1e21, -1.5e21, 123456789.125, math.MaxFloat64, 2.5e-9}
	floats = append(floats, sampleSet(7, 200)...)
	buf := []byte("prefix")
	for i, f := range floats {
		m := Moments{n: int64(i) - 3, mean: f, min: -f / 3, max: f / 7}
		want, err := json.Marshal(momentsJSON{N: m.n, Mean: m.mean, Min: m.min, Max: m.max})
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.AppendJSON(buf)
		if err != nil || string(got[len(buf):]) != string(want) || string(got[:len(buf)]) != "prefix" {
			t.Fatalf("AppendJSON(%v) = %q, %v; want %q", f, got, err, want)
		}
		if marshaled, err := json.Marshal(m); err != nil || string(marshaled) != string(want) {
			t.Fatalf("json.Marshal(%v) = %q, %v; want %q", f, marshaled, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, err := (Moments{n: 1, mean: 0, min: 0, max: f}).AppendJSON(buf); err == nil || string(got) != "prefix" {
			t.Errorf("AppendJSON with %v = %q, %v; want an error and the buffer as given", f, got, err)
		}
	}
}
