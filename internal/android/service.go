package android

import (
	"sort"
	"time"

	"etrain/internal/core"
	"etrain/internal/heartbeat"
	"etrain/internal/profile"
	"etrain/internal/sched"
	"etrain/internal/simtime"
	"etrain/internal/workload"
)

// ActionRegisterCargo is fired by the cargo client library when an app
// registers for eTrain's services, carrying its delay-cost profile.
const ActionRegisterCargo = "etrain.REGISTER_CARGO"

// CargoRegistration is the payload of ActionRegisterCargo.
type CargoRegistration struct {
	// App names the registering cargo app.
	App string
	// Profile is the app's delay-cost profile.
	Profile profile.Profile
}

// ServiceOptions configures the eTrain system service.
type ServiceOptions struct {
	// Core holds the scheduler options (Θ, k, slot) for Algorithm 1.
	Core core.Options
	// BypassAfter is how long the service waits without seeing any
	// heartbeat before it stops scheduling and passes cargo straight
	// through — the paper's "in case when no train app is running, eTrain
	// will stop its scheduler to avoid cargo apps' indefinite waiting".
	// Defaults to 10 minutes (beyond every observed heartbeat cycle).
	BypassAfter time.Duration
}

// Service is the eTrain system: the Heartbeat Monitor, Scheduler and
// Broadcast modules of the paper's Fig. 5, wired to the device bus.
type Service struct {
	device   *Device
	strategy *core.ETrain
	queues   *sched.Queues
	detector *heartbeat.Detector
	profiles map[string]profile.Profile
	opts     ServiceOptions

	lastBeatAt   time.Duration
	beatSeen     bool
	beatsHandled int
}

// StartService installs the eTrain service on the device and starts its
// per-slot scheduling alarm.
func StartService(device *Device, opts ServiceOptions) (*Service, error) {
	strategy, err := core.New(opts.Core)
	if err != nil {
		return nil, err
	}
	if opts.BypassAfter <= 0 {
		opts.BypassAfter = 10 * time.Minute
	}
	s := &Service{
		device:   device,
		strategy: strategy,
		queues:   sched.NewQueues(),
		detector: heartbeat.NewDetector(2 * time.Second),
		profiles: make(map[string]profile.Profile),
		opts:     opts,
	}
	device.Bus.Register(ActionRegisterCargo, s.onRegister)
	device.Bus.Register(ActionHeartbeatSent, s.onHeartbeat)
	device.Bus.Register(ActionSubmitRequest, s.onSubmit)
	simtime.NewAlarm(device.Loop, strategy.SlotLength(), strategy.SlotLength(), s.onSlot)
	return s, nil
}

// Detector exposes the monitor's cycle detector (Table 1 style analysis).
func (s *Service) Detector() *heartbeat.Detector { return s.detector }

// QueuedCount reports packets currently waiting in the service.
func (s *Service) QueuedCount() int { return s.queues.Len() }

// BeatsObserved reports how many heartbeat notifications the monitor
// received.
func (s *Service) BeatsObserved() int { return s.beatsHandled }

func (s *Service) onRegister(now time.Duration, intent Intent) {
	reg, ok := intent.Payload.(CargoRegistration)
	if !ok || reg.Profile == nil {
		return
	}
	s.profiles[reg.App] = reg.Profile
}

// onHeartbeat is the Heartbeat Monitor: the hook fired, so the radio is hot
// right now — run the scheduler with the train flag set and piggyback.
func (s *Service) onHeartbeat(now time.Duration, intent Intent) {
	ev, ok := intent.Payload.(HeartbeatEvent)
	if !ok {
		return
	}
	s.detector.Observe(ev.App, now)
	s.lastBeatAt = now
	s.beatSeen = true
	s.beatsHandled++
	s.schedule(now, true)
}

// onSubmit is the request intake of the Broadcast module: cargo apps'
// requests are stored in the corresponding virtual queue.
func (s *Service) onSubmit(now time.Duration, intent Intent) {
	req, ok := intent.Payload.(TransmissionRequest)
	if !ok {
		return
	}
	prof, registered := s.profiles[req.App]
	if !registered {
		// Unregistered apps have no profile to schedule under: the request
		// passes straight through.
		s.dispatch(map[string][]int{req.App: {req.PacketID}})
		return
	}
	s.queues.Add(workload.Packet{
		ID:        req.PacketID,
		App:       req.App,
		ArrivedAt: now,
		Size:      req.Size,
		Profile:   prof,
	})
}

// onSlot is the periodic scheduler tick (slot boundaries without a train).
func (s *Service) onSlot(now time.Duration) {
	// Stalled-train bypass: without heartbeats there is nothing to
	// piggyback on; stop withholding cargo.
	sinceBeat := now
	if s.beatSeen {
		sinceBeat = now - s.lastBeatAt
	}
	if sinceBeat > s.opts.BypassAfter {
		s.flushAll()
		return
	}
	s.schedule(now, false)
}

func (s *Service) schedule(now time.Duration, heartbeatNow bool) {
	if s.queues.Len() == 0 {
		return
	}
	ctx := &sched.SlotContext{
		Now:          now,
		SlotLength:   s.strategy.SlotLength(),
		HeartbeatNow: heartbeatNow,
		Queues:       s.queues,
	}
	selected := s.strategy.Schedule(ctx)
	if len(selected) == 0 {
		return
	}
	byApp := make(map[string][]int)
	for _, p := range selected {
		byApp[p.App] = append(byApp[p.App], p.ID)
	}
	s.dispatch(byApp)
}

func (s *Service) flushAll() {
	byApp := make(map[string][]int)
	for _, app := range s.queues.Apps() {
		for {
			p, ok := s.queues.PopHead(app)
			if !ok {
				break
			}
			byApp[p.App] = append(byApp[p.App], p.ID)
		}
	}
	if len(byApp) > 0 {
		s.dispatch(byApp)
	}
}

// dispatch is the Broadcast module: one TransmitDecision intent per app, in
// deterministic (sorted) app order.
func (s *Service) dispatch(byApp map[string][]int) {
	apps := make([]string, 0, len(byApp))
	for app := range byApp {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		s.device.Bus.Broadcast(Intent{
			Action:  ActionTransmitDecision,
			Payload: TransmitDecision{App: app, PacketIDs: byApp[app]},
		})
	}
}
