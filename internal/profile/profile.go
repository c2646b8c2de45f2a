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

// funcProfile implements Profile with an explicit cost function. It holds
// its name by pointer, which keeps it at 32 bytes with deadlineS cached:
// a server session builds one per cargo arrival.
type funcProfile struct {
	name     *string
	deadline time.Duration
	// deadlineS is deadline.Seconds(), which every Cost divides by.
	deadlineS float64
	cost      func(dNorm float64) float64
}

var _ Profile = (*funcProfile)(nil)

// The built-in families' names, shared by every profile of the family.
var (
	mailName  = "mail/f1"
	weiboName = "weibo/f2"
	cloudName = "cloud/f3"
)

func newFuncProfile(name *string, deadline time.Duration, cost func(dNorm float64) float64) *funcProfile {
	return &funcProfile{name: name, deadline: deadline, deadlineS: deadline.Seconds(), cost: cost}
}

func (p *funcProfile) Name() string            { return *p.name }
func (p *funcProfile) Deadline() time.Duration { return p.deadline }

func (p *funcProfile) Cost(d time.Duration) float64 {
	if d <= 0 || p.deadline <= 0 {
		return 0
	}
	return p.cost(d.Seconds() / p.deadlineS)
}

// Mail returns the f1 profile: zero cost before the deadline, then
// d/deadline − 1.
func Mail(deadline time.Duration) Profile {
	return newFuncProfile(&mailName, deadline, func(x float64) float64 {
		if x <= 1 {
			return 0
		}
		return x - 1
	})
}

// Weibo returns the f2 profile: d/deadline before the deadline, then the
// constant 2.
func Weibo(deadline time.Duration) Profile {
	return newFuncProfile(&weiboName, deadline, func(x float64) float64 {
		if x <= 1 {
			return x
		}
		return 2
	})
}

// Cloud returns the f3 profile: d/deadline before the deadline, then
// 3·d/deadline − 2.
func Cloud(deadline time.Duration) Profile {
	return newFuncProfile(&cloudName, deadline, func(x float64) float64 {
		if x <= 1 {
			return x
		}
		return 3*x - 2
	})
}

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
// family and report ok = false; they cannot travel over the wire protocol.
func KindOf(p Profile) (Kind, bool) {
	if p == nil {
		return 0, false
	}
	switch p.Name() {
	case "mail/f1":
		return KindMail, true
	case "weibo/f2":
		return KindWeibo, true
	case "cloud/f3":
		return KindCloud, true
	default:
		return 0, false
	}
}

// Custom returns a profile with an arbitrary cost function of normalized
// delay x = d/deadline. The function must be non-negative and non-decreasing
// for the scheduler's analysis to hold; this is the caller's responsibility.
// The simulation engine relies on it too: it skips the slots before eTrain's
// Θ gate opens by bisecting on P(t), so a cost that is not monotone, or
// that returns NaN, also makes a skipping run differ from one that steps
// every slot.
func Custom(name string, deadline time.Duration, cost func(dNorm float64) float64) Profile {
	return newFuncProfile(&name, deadline, cost)
}
