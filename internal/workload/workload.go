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
	"slices"
	"time"

	"etrain/internal/diurnal"
	"etrain/internal/profile"
	"etrain/internal/randx"
	"etrain/internal/simtime"
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
// keeping the profile family (used by the Fig. 10c deadline sweep): the
// profile's own, whatever the spec's name. A custom profile keeps its
// cost curve over normalized delay, so its cost at d under the new
// deadline is the old profile's at the same fraction of the old deadline.
func (s CargoSpec) WithDeadline(deadline time.Duration) CargoSpec {
	out := s
	if kind, ok := profile.KindOf(s.Profile); ok {
		// A family kind never fails profile.New.
		out.Profile, _ = profile.New(kind, deadline)
		return out
	}
	old, prev := s.Profile, float64(s.Profile.Deadline())
	out.Profile = profile.Custom(old.Name(), deadline, func(x float64) float64 {
		return old.Cost(time.Duration(x * prev))
	})
	return out
}

// Generate draws every packet of the given cargo apps over [0, horizon),
// merged by arrival time (packets at one instant in spec order), with IDs
// assigned in arrival order. Each app's arrivals are a homogeneous Poisson
// process; a diurnal sampler replaces it with a thinned non-homogeneous
// one whose rate follows the sampler's cargo factor (activity curve ×
// scheduled events). Either way each app draws from its own child stream
// split off src, all arrivals before all sizes.
func Generate(src *randx.Source, specs []CargoSpec, horizon time.Duration, sam *diurnal.Sampler) ([]Packet, error) {
	app := randx.Acquire(0)
	defer app.Release()
	return new(Generator).Append(nil, src, app, specs, horizon, sam)
}

// Generator holds Generate's scratch, each app's arrival instants and
// every drawn packet before the merge, so a caller that generates many
// workloads in turn, such as a fleet shard, allocates nothing once it has
// grown. The zero value is ready; a Generator is not safe for concurrent
// use.
type Generator struct {
	times    []time.Duration
	arrivals []arrival
}

// arrival is one drawn packet before the merge: its instant, its size and
// the index of its spec.
type arrival struct {
	at   time.Duration
	size int64
	spec int
}

func arrivalAt(a *arrival) time.Duration { return a.at }

// Append appends to dst the packets Generate returns, their IDs counted
// from 0 at the first appended packet. On an error it returns dst as
// given. Each app's child stream is split off src into app, reseeded in
// place, since an app drains it before the next app splits. Each app draws
// its arrivals in time order, so one stable merge of the apps' draws
// orders the packets.
//
//etrain:hotpath
func (g *Generator) Append(dst []Packet, src, app *randx.Source, specs []CargoSpec, horizon time.Duration, sam *diurnal.Sampler) ([]Packet, error) {
	g.arrivals = g.arrivals[:0]
	for i, spec := range specs {
		if err := spec.Validate(); err != nil {
			return dst, err
		}
		appSrc := src.SplitInto(app)
		if sam == nil {
			g.times = randx.NewPoissonProcess(appSrc, spec.MeanInterArrival).AppendArrivalsUntil(g.times[:0], horizon)
		} else {
			g.times = sam.AppendArrivals(g.times[:0], appSrc, spec.MeanInterArrival, horizon)
		}
		for _, at := range g.times {
			size := int64(appSrc.TruncatedNormal(spec.SizeMean, spec.SizeStdDev, spec.SizeMin))
			g.arrivals = append(g.arrivals, arrival{at: at, size: size, spec: i})
		}
	}
	dst = slices.Grow(dst, len(g.arrivals))
	first := len(dst)
	simtime.MergeRuns(g.arrivals, arrivalAt, func(a *arrival) {
		spec := &specs[a.spec]
		dst = append(dst, Packet{
			ID:        len(dst) - first,
			App:       spec.Name,
			ArrivedAt: a.at,
			Size:      a.size,
			Profile:   spec.Profile,
		})
	})
	return dst, nil
}
