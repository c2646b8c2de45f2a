// Package profile implements the delay-cost profile functions of eTrain
// (paper §VI-A, Fig. 6). A profile maps the delay d a packet has experienced
// to a scalar cost φ_u(d); the eTrain scheduler minimizes tail energy subject
// to a budget on the accumulated cost.
//
// The three concrete profiles mirror the paper's tested cargo apps:
//
//	Mail  (f1): zero before the deadline, then grows linearly:
//	            f1(d) = d/deadline − 1 for d ≥ deadline.
//	Weibo (f2): proportional before the deadline, then a constant plateau:
//	            f2(d) = d/deadline for d ≤ deadline, 2 afterwards.
//	Cloud (f3): proportional before the deadline, then three times steeper:
//	            f3(d) = d/deadline for d ≤ deadline, 3·d/deadline − 2 after.
package profile

import (
	"fmt"
	"time"
)

// Kind identifies one of the paper's profile families.
type Kind uint8

// Profile families. The iota starts at one so the zero Kind is invalid and
// cannot be confused with Mail.
const (
	KindMail Kind = iota + 1
	KindWeibo
	KindCloud
)

// String returns the family name.
func (k Kind) String() string {
	switch k {
	case KindMail:
		return "mail"
	case KindWeibo:
		return "weibo"
	case KindCloud:
		return "cloud"
	default:
		return fmt.Sprintf("profile.Kind(%d)", int(k))
	}
}

// Profile maps experienced delay to cost. Implementations must be
// non-negative and non-decreasing in d.
type Profile interface {
	// Cost returns φ(d) for delay d. Negative delays cost zero.
	Cost(d time.Duration) float64
	// Deadline returns the delay at which the packet is considered late.
	Deadline() time.Duration
	// Name identifies the profile for logs and traces.
	Name() string
}

// funcProfile implements Profile for the three families and for Custom.
// It is 32 bytes: a built-in family's name and cost come from its kind,
// and a Custom profile keeps its name and cost function behind one
// pointer.
type funcProfile struct {
	deadline time.Duration
	// deadlineS is deadline.Seconds(), which every affine piece divides by.
	deadlineS float64
	// custom is a Custom profile's name and cost; nil for the families.
	custom *customCost
	// kind is the family, 0 for a Custom profile.
	kind Kind
}

// customCost is what a Custom profile adds to funcProfile.
type customCost struct {
	name string
	cost func(dNorm float64) float64
}

var _ Profile = (*funcProfile)(nil)

func newFamily(kind Kind, deadline time.Duration) *funcProfile {
	return &funcProfile{deadline: deadline, deadlineS: deadline.Seconds(), kind: kind}
}

func (p *funcProfile) Name() string {
	switch p.kind {
	case KindMail:
		return "mail/f1"
	case KindWeibo:
		return "weibo/f2"
	case KindCloud:
		return "cloud/f3"
	default:
		return p.custom.name
	}
}

func (p *funcProfile) Deadline() time.Duration { return p.deadline }

// Cost evaluates the family's piece at x = d.Seconds()/deadline.Seconds().
// Two pieces are constant, and Cost returns them without dividing, with
// the very value the division would have led to:
//
//   - Mail is 0 for d ≤ deadline. Duration.Seconds and the division by a
//     positive deadlineS are monotone in IEEE arithmetic, and
//     x(deadline) = deadlineS/deadlineS = 1, so x ≤ 1 there.
//   - Weibo is 2 once d − deadline > deadline>>20. Duration.Seconds rounds
//     to within a relative 2⁻⁵² of d, far inside that margin of more than
//     2⁻²⁰, so d.Seconds() > deadlineS; the rounded quotient of positive
//     floats a > b is above 1, so x > 1. With d and deadline both positive
//     the subtraction cannot overflow, whatever deadline a client sends.
//
// Every other piece computes x and the formula of the package comment.
func (p *funcProfile) Cost(d time.Duration) float64 {
	if d <= 0 || p.deadline <= 0 {
		return 0
	}
	switch p.kind {
	case KindMail:
		if d <= p.deadline {
			return 0
		}
		x := d.Seconds() / p.deadlineS
		if x <= 1 {
			return 0
		}
		return x - 1
	case KindWeibo:
		if d-p.deadline > p.deadline>>20 {
			return 2
		}
		x := d.Seconds() / p.deadlineS
		if x <= 1 {
			return x
		}
		return 2
	case KindCloud:
		x := d.Seconds() / p.deadlineS
		if x <= 1 {
			return x
		}
		return 3*x - 2
	default:
		return p.custom.cost(d.Seconds() / p.deadlineS)
	}
}

// Mail returns the f1 profile: zero cost before the deadline, then
// d/deadline − 1.
func Mail(deadline time.Duration) Profile { return newFamily(KindMail, deadline) }

// Weibo returns the f2 profile: d/deadline before the deadline, then the
// constant 2.
func Weibo(deadline time.Duration) Profile { return newFamily(KindWeibo, deadline) }

// Cloud returns the f3 profile: d/deadline before the deadline, then
// 3·d/deadline − 2.
func Cloud(deadline time.Duration) Profile { return newFamily(KindCloud, deadline) }

// New returns the profile of the given family with the given deadline.
func New(kind Kind, deadline time.Duration) (Profile, error) {
	switch kind {
	case KindMail:
		return Mail(deadline), nil
	case KindWeibo:
		return Weibo(deadline), nil
	case KindCloud:
		return Cloud(deadline), nil
	default:
		return nil, fmt.Errorf("profile: unknown kind %d", int(kind))
	}
}

// KindOf returns the family a profile belongs to. Custom profiles have no
// family and report ok = false, whatever their name; they cannot travel
// over the wire protocol.
func KindOf(p Profile) (Kind, bool) {
	if fp, ok := p.(*funcProfile); ok && fp.kind != 0 {
		return fp.kind, true
	}
	return 0, false
}

// Custom returns a profile with an arbitrary cost function of normalized
// delay x = d/deadline. The function must be non-negative and non-decreasing
// for the scheduler's analysis to hold; this is the caller's responsibility.
// The simulation engine relies on it too: it skips the slots before eTrain's
// Θ gate opens by bisecting on P(t), so a cost that is not monotone, or
// that returns NaN, also makes a skipping run differ from one that steps
// every slot. eTrain's gate stops summing P(t) at the first prefix that
// reaches Θ, which equals the full sum's verdict only while every cost is
// non-negative.
func Custom(name string, deadline time.Duration, cost func(dNorm float64) float64) Profile {
	p := newFamily(0, deadline)
	p.custom = &customCost{name: name, cost: cost}
	return p
}
