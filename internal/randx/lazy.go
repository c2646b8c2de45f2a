package randx

// The register shape and seeding constants of math/rand's generator.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// lehmerA is the multiplier of the Lehmer seeding sequence
	// x[n+1] = 48271·x[n] mod (2³¹−1).
	lehmerA = 48271
	// zeroSeed replaces a seed that is 0 mod 2³¹−1, as math/rand does.
	zeroSeed = 89482311
)

// seedPowers[i] is 48271^(21+3i) mod (2³¹−1): the multiplier that takes
// the normalized seed x[0] straight to x[21+3i], the first of the three
// Lehmer states that build register word i.
var seedPowers = func() (p [rngLen]uint64) {
	x := uint64(1)
	for n := 0; n < 21; n++ {
		x = x * lehmerA % int32max
	}
	for i := range p {
		p[i] = x
		for n := 0; n < 3; n++ {
			x = x * lehmerA % int32max
		}
	}
	return p
}()

// lazySource is math/rand's seeded generator — the additive lagged
// Fibonacci register x[n] = x[n−273] + x[n−607] mod 2⁶⁴ — with a lazily
// seeded register. math/rand's Seed fills all 607 words with about 1,800
// Lehmer steps. Word i is u(x[21+3i], x[22+3i], x[23+3i]) XOR rngCooked[i]
// with x[n] = seed·48271ⁿ mod (2³¹−1), a pure function of the seed, so
// lazySource computes each word on its first read instead: one multiply by
// a precomputed power plus two Lehmer steps. Its Int63 and Uint64 streams
// equal rand.NewSource's bit for bit for every seed, so a rand.Rand on top
// draws the same Float64, Intn, NormFloat64 and ExpFloat64 values.
type lazySource struct {
	tap, feed int
	// seed is x[0]: the seed normalized into [1, 2³¹−2] as math/rand does.
	seed uint64
	// drawn counts draws until every register word has been read once.
	drawn int
	vec   [rngLen]int64
}

// Seed implements rand.Source. It resets the register without filling it.
func (s *lazySource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.drawn = 0
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
}

// word returns register word i as math/rand's Seed would have left it.
func (s *lazySource) word(i int) int64 {
	x := s.seed * seedPowers[i] % int32max
	u := x << 40
	x = x * lehmerA % int32max
	u ^= x << 20
	x = x * lehmerA % int32max
	u ^= x
	return int64(u) ^ rngCooked[i]
}

// Uint64 implements rand.Source64.
//
//etrain:hotpath
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.drawn < rngLen-rngTap {
		// Draw n reads feed word 334−n and tap word 607−n (mod 607).
		// The first 334 draws meet each feed word before any write, the
		// first 273 each tap word; every later read finds a word an
		// earlier draw already seeded.
		s.vec[s.feed] = s.word(s.feed)
		if s.drawn < rngTap {
			s.vec[s.tap] = s.word(s.tap)
		}
		s.drawn++
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
//
//etrain:hotpath
func (s *lazySource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}
