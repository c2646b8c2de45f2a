// Package workload models the "cargo" side of eTrain: the delay-tolerant
// data packets generated by mail, SNS and cloud-storage apps.
//
// Packet arrivals follow independent Poisson processes with the paper's
// mean inter-arrival ratio mail:weibo:cloud = 5:2:10 (50 s / 20 s / 100 s at
// total rate λ = 0.08 packets/s) and truncated-normal sizes (mail 5 KB min
// 1 KB, weibo 2 KB min 100 B, cloud 100 KB min 10 KB). The package also
// carries the user-behavior trace format of the paper's deployed Weibo
// client and a synthesizer for the activeness classes of Fig. 11.
package workload

import (
	"fmt"
	"sort"
	"time"

	"etrain/internal/diurnal"
	"etrain/internal/profile"
	"etrain/internal/randx"
)

// Packet is one application-layer data unit awaiting transmission.
type Packet struct {
	// ID is unique within a run.
	ID int
	// App names the cargo app that generated the packet.
	App string
	// ArrivedAt is t_a(u), the packet's arrival instant.
	ArrivedAt time.Duration
	// Size is the payload in bytes.
	Size int64
	// Profile is the delay-cost profile the packet is charged under.
	Profile profile.Profile
}

// Cost returns the packet's delay cost if transmitted at instant at.
func (p Packet) Cost(at time.Duration) float64 {
	return p.Profile.Cost(at - p.ArrivedAt)
}

// DeadlineViolated reports whether transmitting at instant at misses the
// packet's deadline.
func (p Packet) DeadlineViolated(at time.Duration) bool {
	return at-p.ArrivedAt > p.Profile.Deadline()
}

// CargoSpec describes one cargo application's packet population.
type CargoSpec struct {
	// Name identifies the app.
	Name string
	// Profile is the delay-cost profile of the app's packets.
	Profile profile.Profile
	// MeanInterArrival is the Poisson mean gap between packets.
	MeanInterArrival time.Duration
	// SizeMean, SizeStdDev and SizeMin parameterize the truncated normal
	// size distribution, in bytes.
	SizeMean   float64
	SizeStdDev float64
	SizeMin    float64
}

// Rate returns the spec's arrival rate in packets/second.
func (s CargoSpec) Rate() float64 {
	if s.MeanInterArrival <= 0 {
		return 0
	}
	return 1 / s.MeanInterArrival.Seconds()
}

// Validate reports whether the spec is usable.
func (s CargoSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: cargo spec has no name")
	}
	if s.Profile == nil {
		return fmt.Errorf("workload: cargo %q has no profile", s.Name)
	}
	if s.MeanInterArrival <= 0 {
		return fmt.Errorf("workload: cargo %q has non-positive inter-arrival %v", s.Name, s.MeanInterArrival)
	}
	if s.SizeMean <= 0 || s.SizeMin <= 0 || s.SizeMin > s.SizeMean {
		return fmt.Errorf("workload: cargo %q has inconsistent sizes mean=%v min=%v", s.Name, s.SizeMean, s.SizeMin)
	}
	return nil
}

// Simulation default deadlines. The paper reports a deadline only for the
// controlled Weibo replay (30 s, §VI-D); its simulation deadlines are not
// given. These values are calibrated so the Θ ∈ [0, 3] sweep of Fig. 7a
// spans the paper's normalized-delay range (≈18 → 70 s) against the
// ~90 s mean train gap of the QQ/WeChat/WhatsApp trio; see DESIGN.md.
const (
	DefaultMailDeadline  = 180 * time.Second
	DefaultWeiboDeadline = 90 * time.Second
	DefaultCloudDeadline = 300 * time.Second
)

// MailSpec returns the eTrain Mail workload at the paper's λ=0.08 setting
// (mean inter-arrival 50 s, sizes N(5 KB) truncated at 1 KB).
func MailSpec() CargoSpec {
	return CargoSpec{
		Name:             "mail",
		Profile:          profile.Mail(DefaultMailDeadline),
		MeanInterArrival: 50 * time.Second,
		SizeMean:         5 * 1024,
		SizeStdDev:       2.5 * 1024,
		SizeMin:          1 * 1024,
	}
}

// WeiboSpec returns the Luna Weibo workload (20 s, N(2 KB) min 100 B).
func WeiboSpec() CargoSpec {
	return CargoSpec{
		Name:             "weibo",
		Profile:          profile.Weibo(DefaultWeiboDeadline),
		MeanInterArrival: 20 * time.Second,
		SizeMean:         2 * 1024,
		SizeStdDev:       1 * 1024,
		SizeMin:          100,
	}
}

// CloudSpec returns the eTrain Cloud workload (100 s, N(100 KB) min 10 KB).
func CloudSpec() CargoSpec {
	return CargoSpec{
		Name:             "cloud",
		Profile:          profile.Cloud(DefaultCloudDeadline),
		MeanInterArrival: 100 * time.Second,
		SizeMean:         100 * 1024,
		SizeStdDev:       50 * 1024,
		SizeMin:          10 * 1024,
	}
}

// DefaultSpecs returns the paper's three cargo apps at λ = 0.08.
func DefaultSpecs() []CargoSpec {
	return []CargoSpec{MailSpec(), WeiboSpec(), CloudSpec()}
}

// lambdaReference is the total arrival rate of DefaultSpecs:
// 1/50 + 1/20 + 1/100 = 0.08 packets/second.
const lambdaReference = 0.08

// SpecsForLambda scales the default specs' inter-arrival times so the total
// arrival rate equals lambda, preserving the paper's 5:2:10 ratio (§VI-C:
// "by scaling up or down their mean inter-arrival time").
func SpecsForLambda(lambda float64) ([]CargoSpec, error) {
	if lambda <= 0 {
		return nil, fmt.Errorf("workload: non-positive lambda %v", lambda)
	}
	factor := lambdaReference / lambda
	specs := DefaultSpecs()
	for i := range specs {
		specs[i].MeanInterArrival = time.Duration(float64(specs[i].MeanInterArrival) * factor)
	}
	return specs, nil
}

// WithDeadline returns a copy of the spec whose profile deadline is replaced,
// keeping the profile family (used by the Fig. 10c deadline sweep).
func (s CargoSpec) WithDeadline(deadline time.Duration) CargoSpec {
	out := s
	switch s.Name {
	case "mail":
		out.Profile = profile.Mail(deadline)
	case "weibo":
		out.Profile = profile.Weibo(deadline)
	case "cloud":
		out.Profile = profile.Cloud(deadline)
	default:
		out.Profile = profile.Custom(s.Profile.Name(), deadline, func(x float64) float64 {
			return s.Profile.Cost(time.Duration(x * float64(deadline)))
		})
	}
	return out
}

// Generate draws every packet of the given cargo apps over [0, horizon),
// merged and sorted by arrival time, with IDs assigned in arrival order.
// Each app's arrivals are a homogeneous Poisson process; a diurnal sampler
// replaces it with a thinned non-homogeneous one whose rate follows the
// sampler's cargo factor (activity curve × scheduled events). Either way
// each app draws from its own pooled child stream, all arrivals before
// all sizes.
func Generate(src *randx.Source, specs []CargoSpec, horizon time.Duration, sam *diurnal.Sampler) ([]Packet, error) {
	var all []Packet
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		// appSrc (and the process retaining it) is fully drained within
		// this iteration, so it comes from the source pool.
		appSrc := src.SplitPooled()
		var arrivals []time.Duration
		if sam == nil {
			arrivals = randx.NewPoissonProcess(appSrc, spec.MeanInterArrival).ArrivalsUntil(horizon)
		} else {
			arrivals = sam.Arrivals(appSrc, spec.MeanInterArrival, horizon)
		}
		for _, at := range arrivals {
			size := int64(appSrc.TruncatedNormal(spec.SizeMean, spec.SizeStdDev, spec.SizeMin))
			all = append(all, Packet{
				App:       spec.Name,
				ArrivedAt: at,
				Size:      size,
				Profile:   spec.Profile,
			})
		}
		appSrc.Release()
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].ArrivedAt < all[j].ArrivedAt })
	for i := range all {
		all[i].ID = i
	}
	return all, nil
}
