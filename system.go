package etrain

import (
	"fmt"
	"time"

	"etrain/internal/android"
	"etrain/internal/bandwidth"
	"etrain/internal/core"
	"etrain/internal/heartbeat"
	"etrain/internal/randx"
)

// SystemConfig configures a live eTrain system (the paper's §V
// implementation on the simulated Android stack).
type SystemConfig struct {
	// Seed drives the synthetic bandwidth trace when Bandwidth is nil.
	Seed int64
	// Theta is the scheduler's cost bound Θ.
	Theta float64
	// K is the heartbeat batch limit; KInfinite if zero.
	K int
	// Power is the radio model; GalaxyS43G() if zero.
	Power PowerModel
	// Bandwidth overrides the synthetic trace when non-nil.
	Bandwidth *BandwidthTrace
	// BandwidthHorizon sizes the synthetic trace; 2 h if zero.
	BandwidthHorizon time.Duration
	// BypassAfter is how long the service tolerates heartbeat silence
	// before passing cargo straight through; 10 min if zero.
	BypassAfter time.Duration
}

// System is a running eTrain installation: device, service, hooked train
// apps and registered cargo apps, all on one deterministic virtual-time
// loop.
type System struct {
	device  *android.Device
	service *android.Service
	trains  []*android.TrainService
	cargos  []*android.CargoApp
}

// Cargo is the handle a cargo application uses to submit data.
type Cargo = android.CargoApp

// NewSystem builds a live system.
func NewSystem(cfg SystemConfig) (*System, error) {
	power := cfg.Power
	if power == (PowerModel{}) {
		power = GalaxyS43G()
	}
	bw := cfg.Bandwidth
	if bw == nil {
		horizon := cfg.BandwidthHorizon
		if horizon == 0 {
			horizon = 2 * time.Hour
		}
		var err error
		bw, err = bandwidth.Synthesize(randx.New(cfg.Seed), horizon, nil)
		if err != nil {
			return nil, err
		}
	}
	device, err := android.NewDevice(power, bw)
	if err != nil {
		return nil, err
	}
	k := cfg.K
	if k == 0 {
		k = KInfinite
	}
	service, err := android.StartService(device, android.ServiceOptions{
		Core:        core.Options{Theta: cfg.Theta, K: k},
		BypassAfter: cfg.BypassAfter,
	})
	if err != nil {
		return nil, err
	}
	return &System{device: device, service: service}, nil
}

// AddTrain installs a hooked heartbeat-sending app.
func (s *System) AddTrain(app TrainApp) error {
	train, err := android.StartTrain(s.device, app, true)
	if err != nil {
		return err
	}
	s.trains = append(s.trains, train)
	return nil
}

// RegisterCargo registers a cargo application with the given delay-cost
// profile and returns its submission handle.
func (s *System) RegisterCargo(name string, prof Profile) (*Cargo, error) {
	if name == "" {
		return nil, fmt.Errorf("etrain: cargo app needs a name")
	}
	if prof == nil {
		return nil, fmt.Errorf("etrain: cargo app %q needs a profile", name)
	}
	cargo := android.NewCargoApp(s.device, name, prof)
	s.cargos = append(s.cargos, cargo)
	return cargo, nil
}

// Run executes the system until the virtual horizon.
func (s *System) Run(horizon time.Duration) {
	s.device.Run(horizon)
}

// Now returns the system's current virtual time.
func (s *System) Now() time.Duration { return s.device.Loop.Now() }

// EnergyBreakdown accounts the radio energy consumed up to horizon.
func (s *System) EnergyBreakdown(horizon time.Duration) Energy {
	return s.device.Energy(horizon)
}

// HeartbeatsObserved reports how many heartbeats eTrain's monitor saw.
func (s *System) HeartbeatsObserved() int { return s.service.BeatsObserved() }

// QueuedPackets reports cargo packets still waiting in the scheduler.
func (s *System) QueuedPackets() int { return s.service.QueuedCount() }

// DetectedCycles returns the heartbeat cycles the monitor has established,
// per train app (the Table 1 analysis, online).
func (s *System) DetectedCycles() map[string]time.Duration {
	det := s.service.Detector()
	out := make(map[string]time.Duration)
	for _, app := range det.Apps() {
		if cycle, ok := det.Cycle(app); ok && det.Stable(app) {
			out[app] = cycle
		}
	}
	return out
}

// PredictNextHeartbeat extrapolates the next beat of a train app from the
// monitor's observations, as the paper's t_s(h_{i,0}) + cycle·j predictor.
func (s *System) PredictNextHeartbeat(app string) (time.Duration, bool) {
	return s.service.Detector().PredictNext(app)
}

// Delivered merges every cargo app's delivery log.
func (s *System) Delivered() []DeliveredPacket {
	var out []DeliveredPacket
	for _, c := range s.cargos {
		out = append(out, c.Delivered()...)
	}
	return out
}

// MergedSchedule returns the train departure table for the given apps and
// horizon (the set H of the paper's formulation).
func MergedSchedule(apps []TrainApp, horizon time.Duration) []Beat {
	return heartbeat.Merge(apps, horizon, nil)
}
