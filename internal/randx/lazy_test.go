package randx

import (
	"math"
	"math/rand"
	"testing"
)

// lazyTestSeeds returns 300 derived seeds spread over the whole int64
// range plus the edges of math/rand's seed normalization: zero and the
// multiples of 2³¹−1 (which it replaces with 89482311), the sign flip,
// and the int64 extremes.
func lazyTestSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max, -2 * int32max,
		int32max - 1, int32max + 1, 7 * int32max, -7 * int32max,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - math.MaxInt64%int32max,
		zeroSeed, -zeroSeed,
	}
	for i := uint64(0); i < 300; i++ {
		d := Derive(20261017, i)
		if i%2 == 1 {
			d = -d
		}
		seeds = append(seeds, d)
	}
	return seeds
}

// drawMixed makes n draws from r cycling through every rand.Rand method
// the package and its callers use, and returns them as bit patterns.
func drawMixed(r *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		switch i % 7 {
		case 0:
			out[i] = uint64(r.Int63())
		case 1:
			out[i] = math.Float64bits(r.Float64())
		case 2:
			out[i] = uint64(r.Intn(1 + i))
		case 3:
			out[i] = math.Float64bits(r.NormFloat64())
		case 4:
			out[i] = math.Float64bits(r.ExpFloat64())
		case 5:
			out[i] = r.Uint64()
		default:
			out[i] = uint64(r.Int63n(1<<40 + int64(i)))
		}
	}
	return out
}

func assertSameDraws(t *testing.T, what string, seed int64, got, want []uint64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s, seed %d: draw %d = %#x, math/rand gives %#x", what, seed, i, got[i], want[i])
		}
	}
}

// TestLazySourceMatchesMathRand pins the lazy generator to math/rand's
// seeded stream: the same draws for every seed, from a fresh Source, after
// reseeding a Source mid-stream, and from a pooled Source.
func TestLazySourceMatchesMathRand(t *testing.T) {
	const draws = 3000
	seeds := lazyTestSeeds()
	for k, seed := range seeds {
		want := drawMixed(rand.New(rand.NewSource(seed)), draws)
		assertSameDraws(t, "New", seed, drawMixed(New(seed).rng, draws), want)

		// Reseed mid-stream: the register is partly seeded and partly
		// advanced, and none of it may leak into the new stream.
		prev := New(seeds[(k+1)%len(seeds)])
		drawMixed(prev.rng, k%700)
		prev.rng.Seed(seed)
		assertSameDraws(t, "reseeded", seed, drawMixed(prev.rng, draws), want)

		pooled := Acquire(seeds[(k+2)%len(seeds)])
		drawMixed(pooled.rng, k%500)
		pooled.Release()
		pooled = Acquire(seed)
		assertSameDraws(t, "Acquire", seed, drawMixed(pooled.rng, draws), want)
		pooled.Release()
	}
}

func BenchmarkSeedAnd20Draws(b *testing.B) {
	b.Run("lazy", func(b *testing.B) {
		s := New(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.rng.Seed(int64(i))
			for j := 0; j < 20; j++ {
				s.Float64()
			}
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			for j := 0; j < 20; j++ {
				r.Float64()
			}
		}
	})
}
