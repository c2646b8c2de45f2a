package server

import (
	"sync"
	"time"

	"etrain/internal/wire"
)

// Admission is a pluggable overload policy (DESIGN.md §15). When
// Config.Admission is non-nil the server signals refusals explicitly with
// wire.Busy frames instead of silently closing; when nil (the default)
// every byte the server emits is identical to the pre-admission protocol,
// so legacy clients and goldens are untouched.
//
// Implementations must be safe for concurrent use: every session consults
// the same policy. Deterministic policies (tests, scenarios) must decide
// from the frame contents alone; pressure-driven policies may also use
// the queue occupancy and an injected clock.
type Admission interface {
	// AdmitHello decides whether a new session's Hello is admitted. A
	// refusal is answered with Busy{retryAfter, ReasonConns} and counted
	// Refused; the connection closes without a session.
	AdmitHello(h wire.Hello) (ok bool, retryAfter time.Duration)
	// ShedCargo decides whether a queued CargoArrival is shed instead of
	// applied. queued is the session's current event-queue occupancy. A
	// shed event is NOT consumed: the server answers
	// Busy{retryAfter, ReasonQueue} and parks the session, so the client's
	// resume redelivers the event — shedding defers work, it never loses
	// it.
	ShedCargo(h wire.Hello, c wire.CargoArrival, queued int) (shed bool, retryAfter time.Duration)
	// RetryAfter is the backoff hinted in Busy frames sent for
	// connection-level refusals (conns, draining, lame-duck), where no
	// Hello is available to consult the policy with.
	RetryAfter() time.Duration
}

// TokenBucketConfig parameterizes the default admission policy.
type TokenBucketConfig struct {
	// Rate is the sustained Hello admission rate in Hellos per second.
	Rate float64
	// Burst is the bucket capacity: how many Hellos may be admitted
	// back-to-back after an idle period (and the bucket's initial fill).
	Burst float64
	// RetryAfter is the backoff hinted in every Busy this policy produces.
	// It is also the shed floor: cargo whose Deadline is at most
	// RetryAfter is never shed, because a retry deferred by RetryAfter
	// could no longer meet it.
	RetryAfter time.Duration
	// HighWater is the event-queue occupancy at or above which cargo with
	// a longer deadline is shed; 0 disables shedding.
	HighWater int
	// Clock refills the bucket; nil freezes refill (the bucket is then a
	// fixed budget of Burst admissions), which keeps clockless tests
	// deterministic.
	Clock func() time.Time
}

// TokenBucketAdmission is the default Admission policy: a token bucket on
// new Hellos (the SRE-style guard against admission storms after a
// failover) plus a queue-occupancy high-water mark with deadline-aware
// cargo shedding.
type TokenBucketAdmission struct {
	cfg TokenBucketConfig

	mu     sync.Mutex
	tokens float64
	last   time.Time
	primed bool
}

// NewTokenBucketAdmission returns the default policy. Rate and Burst are
// floored at 1/s and 1 token respectively; RetryAfter defaults to 100ms.
func NewTokenBucketAdmission(cfg TokenBucketConfig) *TokenBucketAdmission {
	if cfg.Rate <= 0 {
		cfg.Rate = 1
	}
	if cfg.Burst < 1 {
		cfg.Burst = 1
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 100 * time.Millisecond
	}
	return &TokenBucketAdmission{cfg: cfg, tokens: cfg.Burst}
}

// AdmitHello implements Admission: one token per admitted Hello,
// refilling at Rate tokens per second of injected-clock time.
func (a *TokenBucketAdmission) AdmitHello(wire.Hello) (bool, time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cfg.Clock != nil {
		now := a.cfg.Clock()
		if a.primed {
			if dt := now.Sub(a.last); dt > 0 {
				a.tokens += dt.Seconds() * a.cfg.Rate
				if a.tokens > a.cfg.Burst {
					a.tokens = a.cfg.Burst
				}
			}
		}
		a.last = now
		a.primed = true
	}
	if a.tokens >= 1 {
		a.tokens--
		return true, 0
	}
	return false, a.cfg.RetryAfter
}

// ShedCargo implements Admission: shed when the session queue sits at or
// above the high-water mark, but never shed work whose deadline a
// deferred retry could miss (a Deadline of at most RetryAfter).
func (a *TokenBucketAdmission) ShedCargo(_ wire.Hello, c wire.CargoArrival, queued int) (bool, time.Duration) {
	if a.cfg.HighWater <= 0 || queued < a.cfg.HighWater || c.Deadline <= a.cfg.RetryAfter {
		return false, 0
	}
	return true, a.cfg.RetryAfter
}

// RetryAfter implements Admission.
func (a *TokenBucketAdmission) RetryAfter() time.Duration { return a.cfg.RetryAfter }
