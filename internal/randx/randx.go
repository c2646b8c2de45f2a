// Package randx provides deterministic random-number utilities used across
// the eTrain simulator: seeded streams, Poisson arrival processes and
// truncated normal size distributions.
//
// All randomness in the repository flows through this package so that every
// simulation run is exactly reproducible from its seed.
package randx

import (
	"math/rand"
	"sync"
)

// Source is a deterministic random stream. It wraps math/rand with the
// distributions the workload and bandwidth models need. Its generator is a
// lazySource, which draws exactly the stream rand.NewSource(seed) would but
// seeds in constant time.
type Source struct {
	rng *rand.Rand
	src lazySource
}

// New returns a Source seeded with seed. Equal seeds yield equal streams.
func New(seed int64) *Source {
	s := &Source{}
	s.src.Seed(seed)
	s.rng = rand.New(&s.src)
	return s
}

// Split derives an independent child stream from this source. The child is a
// pure function of the parent's seed sequence, so splitting preserves
// determinism while decoupling consumers from each other's draw counts.
func (s *Source) Split() *Source {
	return New(s.rng.Int63())
}

// sourcePool recycles Sources: the generator carries a ~5 KB register whose
// allocation would dominate fleet-scale synthesis (every device draws a
// handful of short-lived streams). Reseeding fully resets the generator,
// so a pooled Source's stream is bit-identical to a freshly built one.
var sourcePool = sync.Pool{New: func() any { return New(0) }}

// Acquire returns a pooled Source reset to the exact stream New(seed)
// produces. Release it when the stream is fully consumed.
func Acquire(seed int64) *Source {
	s := sourcePool.Get().(*Source)
	s.Reseed(seed)
	return s
}

// Release returns s to the source pool. The caller must not use s (or any
// value that retains it, like a PoissonProcess) afterwards.
func (s *Source) Release() {
	sourcePool.Put(s)
}

// Reseed resets s in place to the exact stream New(seed) produces, so an
// owner that consumes one stream after another keeps a single Source.
func (s *Source) Reseed(seed int64) {
	s.rng.Seed(seed)
}

// SplitInto is Split drawing the child into child, reseeded in place: the
// child stream is bit-identical to Split's. It returns child.
func (s *Source) SplitInto(child *Source) *Source {
	child.Reseed(s.rng.Int63())
	return child
}

// Derive mixes the given parts into seed with a splitmix64-style finalizer
// and returns a non-negative stream seed that is a pure function of its
// inputs. Unlike Split, Derive consumes no stream state: any consumer that
// can name its identity — a sweep shard's (strategy, control) pair, a
// fleet's device index — gets the same independent stream no matter when,
// where or in which order it asks. This is what makes parallel simulation
// runs bit-identical to sequential ones.
func Derive(seed int64, parts ...uint64) int64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	h = mix64(h)
	for _, p := range parts {
		h = mix64(h ^ p)
	}
	return int64(h >> 1)
}

// FNVOffset is the initial state of FNV-1a, the hash DeriveString takes.
const FNVOffset = 14695981039346656037

// DeriveString hashes s into a part usable with Derive (FNV-1a).
func DeriveString(s string) uint64 {
	return fnv1a(FNVOffset, s)
}

// FNV1a continues FNV-1a state h over p. Folding the pieces of a text in
// order, from FNVOffset, gives DeriveString of the whole text, so a caller
// can hash text it never holds at once.
func FNV1a(h uint64, p []byte) uint64 {
	return fnv1a(h, p)
}

func fnv1a[T string | []byte](h uint64, p T) uint64 {
	const prime64 = 1099511628211
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= prime64
	}
	return h
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over 64 bits.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform value in [0, n). n must be > 0.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (s *Source) Int63() int64 { return s.rng.Int63() }

// NormFloat64 returns a standard normal value.
func (s *Source) NormFloat64() float64 { return s.rng.NormFloat64() }

// Exp returns an exponential value with the given mean. A non-positive mean
// returns 0.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.rng.ExpFloat64() * mean
}

// Normal returns a normal value with the given mean and standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return s.rng.NormFloat64()*stddev + mean
}

// TruncatedNormal returns a normal value with the given mean and standard
// deviation, truncated from below at min. Values below min are resampled; if
// resampling fails repeatedly (a pathological configuration where min is far
// above the mean) the value saturates at min.
func (s *Source) TruncatedNormal(mean, stddev, min float64) float64 {
	const maxAttempts = 64
	for i := 0; i < maxAttempts; i++ {
		v := s.Normal(mean, stddev)
		if v >= min {
			return v
		}
	}
	return min
}
