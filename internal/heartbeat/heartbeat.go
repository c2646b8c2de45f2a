// Package heartbeat models the "train" side of eTrain: the periodic
// keep-alive transmissions of IM and SNS apps, measured by the paper in
// §II (Table 1, Fig. 1b, Fig. 3).
//
// Android apps run their own heartbeat services with app-specific cycles
// (WeChat 270 s, WhatsApp 240 s, QQ 300 s, RenRen 300 s); NetEase News uses
// an adaptive cycle that starts at 60 s and doubles after every 6 beats up
// to 480 s; iOS funnels all apps through APNS with a shared 1800 s cycle.
// The package provides generative models of these apps, merged train
// schedules, and an online cycle detector that recovers the cycles from an
// observed packet stream the way the paper's Wireshark analysis did.
package heartbeat

import (
	"fmt"
	"slices"
	"time"

	"etrain/internal/simtime"
)

// CyclePolicy yields the interval that follows each heartbeat.
type CyclePolicy interface {
	// IntervalAfter returns the gap between heartbeat beatIndex and
	// beatIndex+1 (0-based: IntervalAfter(0) separates the first and
	// second beats).
	IntervalAfter(beatIndex int) time.Duration
}

// FixedCycle is a constant heartbeat cycle.
type FixedCycle time.Duration

var _ CyclePolicy = FixedCycle(0)

// IntervalAfter implements CyclePolicy.
func (c FixedCycle) IntervalAfter(int) time.Duration { return time.Duration(c) }

// AdaptiveCycle is NetEase News' backoff policy: start at Initial, multiply
// by Factor after every BeatsPerStep beats, never exceeding Max.
type AdaptiveCycle struct {
	Initial      time.Duration
	Factor       int
	BeatsPerStep int
	Max          time.Duration
}

var _ CyclePolicy = AdaptiveCycle{}

// IntervalAfter implements CyclePolicy.
func (c AdaptiveCycle) IntervalAfter(beatIndex int) time.Duration {
	if beatIndex < 0 {
		beatIndex = 0
	}
	interval := c.Initial
	steps := beatIndex / max(1, c.BeatsPerStep)
	for i := 0; i < steps; i++ {
		interval *= time.Duration(max(1, c.Factor))
		if c.Max > 0 && interval >= c.Max {
			return c.Max
		}
	}
	if c.Max > 0 && interval > c.Max {
		return c.Max
	}
	return interval
}

// TrainApp is one heartbeat-sending application.
type TrainApp struct {
	// Name identifies the app.
	Name string
	// PacketSize is the heartbeat payload in bytes.
	PacketSize int64
	// Policy yields the cycle sequence.
	Policy CyclePolicy
	// FirstAt is the phase: the virtual instant of the first heartbeat.
	FirstAt time.Duration
}

// Beat is one heartbeat instance on a merged schedule.
type Beat struct {
	// At is the transmission instant.
	At time.Duration
	// App names the sending application.
	App string
	// Size is the payload in bytes.
	Size int64
}

// Schedule returns every heartbeat instant of the app strictly before
// horizon. When scale is non-nil, each interval the policy yields is
// replaced by scale(at, interval), where at is the beat the interval
// starts from; nil keeps the policy's own cadence. The walk ends at the
// first interval, policy-given or scaled, that is not positive, so a
// broken policy or factor cannot loop forever.
func (a TrainApp) Schedule(horizon time.Duration, scale func(at, step time.Duration) time.Duration) []Beat {
	return a.AppendSchedule(nil, horizon, scale)
}

// AppendSchedule appends to dst the beats Schedule returns.
//
//etrain:hotpath
func (a TrainApp) AppendSchedule(dst []Beat, horizon time.Duration, scale func(at, step time.Duration) time.Duration) []Beat {
	at := a.FirstAt
	for i := 0; at < horizon; i++ {
		dst = append(dst, Beat{At: at, App: a.Name, Size: a.PacketSize})
		step := a.Policy.IntervalAfter(i)
		if step <= 0 {
			break
		}
		if scale != nil {
			if step = scale(at, step); step <= 0 {
				break
			}
		}
		at += step
	}
	return dst
}

// Merge combines the schedules of several train apps into one chronologically
// sorted train departure table (the set H of the paper): beats in time
// order, beats at one instant in app order. scale modulates every app's
// cadence as in TrainApp.Schedule; nil keeps each app's own.
func Merge(apps []TrainApp, horizon time.Duration, scale func(at, step time.Duration) time.Duration) []Beat {
	return new(Merger).Append(nil, apps, horizon, scale)
}

// Merger holds Merge's scratch, the apps' schedules walked end to end, so
// a caller that merges many train sets in turn, such as a fleet shard,
// allocates nothing once it has grown. The zero value is ready; a Merger
// is not safe for concurrent use.
type Merger struct {
	runs []Beat
}

// Append appends to dst the departure table Merge returns. Each app's
// schedule is already in time order, so one stable merge of the schedules
// orders the table.
//
//etrain:hotpath
func (m *Merger) Append(dst []Beat, apps []TrainApp, horizon time.Duration, scale func(at, step time.Duration) time.Duration) []Beat {
	m.runs = m.runs[:0]
	for _, a := range apps {
		m.runs = a.AppendSchedule(m.runs, horizon, scale)
	}
	dst = slices.Grow(dst, len(m.runs))
	simtime.MergeRuns(m.runs, beatAt, func(b *Beat) { dst = append(dst, *b) })
	return dst
}

func beatAt(b *Beat) time.Duration { return b.At }

// Paper §VI-A synthesizes heartbeats for QQ, WeChat and WhatsApp with cycles
// 300/270/240 s and sizes 378/74/66 B. RenRen and NetEase sizes are not
// reported; 200 B and 150 B are representative keep-alive payloads.
const (
	qqCycle       = 300 * time.Second
	weChatCycle   = 270 * time.Second
	whatsAppCycle = 240 * time.Second
	renRenCycle   = 300 * time.Second
	apnsCycle     = 1800 * time.Second
)

// QQ returns Mobile QQ's heartbeat model (300 s, 378 B).
func QQ() TrainApp {
	return TrainApp{Name: "qq", PacketSize: 378, Policy: FixedCycle(qqCycle)}
}

// WeChat returns WeChat's heartbeat model (270 s, 74 B).
func WeChat() TrainApp {
	return TrainApp{Name: "wechat", PacketSize: 74, Policy: FixedCycle(weChatCycle)}
}

// WhatsApp returns WhatsApp's heartbeat model (240 s, 66 B).
func WhatsApp() TrainApp {
	return TrainApp{Name: "whatsapp", PacketSize: 66, Policy: FixedCycle(whatsAppCycle)}
}

// RenRen returns RenRen SNS's heartbeat model (constant 300 s).
func RenRen() TrainApp {
	return TrainApp{Name: "renren", PacketSize: 200, Policy: FixedCycle(renRenCycle)}
}

// NetEase returns NetEase News' adaptive heartbeat model: 60 s initial
// cycle, doubling after every 6 beats, capped at 480 s (Fig. 3d).
func NetEase() TrainApp {
	return TrainApp{
		Name:       "netease",
		PacketSize: 150,
		Policy: AdaptiveCycle{
			Initial:      60 * time.Second,
			Factor:       2,
			BeatsPerStep: 6,
			Max:          480 * time.Second,
		},
	}
}

// APNS returns the iOS Apple Push Notification Service model: a single
// shared 1800 s heartbeat for all apps (Table 1, iPhone rows).
func APNS() TrainApp {
	return TrainApp{Name: "apns", PacketSize: 120, Policy: FixedCycle(apnsCycle)}
}

// DefaultTrio returns the three train apps of the paper's simulations
// (QQ, WeChat, WhatsApp) with staggered phases so their beats interleave.
// The phases deliberately avoid small residues modulo 60 s: the QQ and
// WhatsApp cycles are multiples of 60 s, so a phase near a 60 s boundary
// would systematically let 60 s-slotted strategies (eTime) merge heartbeat
// tails with their own bursts — a simulation artifact, not physics.
func DefaultTrio() []TrainApp {
	qq := QQ()
	wc := WeChat()
	wa := WhatsApp()
	qq.FirstAt = 33 * time.Second
	wc.FirstAt = 27 * time.Second
	wa.FirstAt = 89 * time.Second
	return []TrainApp{qq, wc, wa}
}

// Validate reports whether the app's configuration is usable.
func (a TrainApp) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("heartbeat: app has no name")
	}
	if a.PacketSize <= 0 {
		return fmt.Errorf("heartbeat: app %q has non-positive packet size %d", a.Name, a.PacketSize)
	}
	if a.Policy == nil {
		return fmt.Errorf("heartbeat: app %q has no cycle policy", a.Name)
	}
	if a.Policy.IntervalAfter(0) <= 0 {
		return fmt.Errorf("heartbeat: app %q has non-positive first interval", a.Name)
	}
	return nil
}
