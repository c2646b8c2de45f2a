package cluster

import (
	"fmt"
	"io"
	"strconv"

	"etrain/internal/stats"
	"etrain/internal/wire"
)

// DefaultFleetAlpha is the relative accuracy of the fleet delay sketch.
const DefaultFleetAlpha = 0.01

// FleetStats folds per-device StatsSnapshot frames into fleet-wide
// aggregates on the mergeable stats primitives. Determinism discipline
// (DESIGN.md §9): the caller folds snapshots sorted by device, never by
// arrival, so the Moments are a pure function of the device set,
// regardless of which shard served which device, how many shards there
// were, or when one was killed. The Sketch needs no ordering (its adds
// commute exactly), but it rides the same fold.
type FleetStats struct {
	devices     uint64
	energy      stats.Moments
	delay       stats.Moments
	violation   stats.Moments
	delaySketch *stats.Sketch
	dataPackets uint64
	heartbeats  uint64
	forcedFlush uint64
}

// NewFleetStats returns an empty accumulator whose delay sketch has the
// given relative accuracy (DefaultFleetAlpha if alpha is 0).
func NewFleetStats(alpha float64) (*FleetStats, error) {
	if alpha == 0 {
		alpha = DefaultFleetAlpha
	}
	sk, err := stats.NewSketch(alpha)
	if err != nil {
		return nil, fmt.Errorf("cluster: fleet stats: %w", err)
	}
	return &FleetStats{delaySketch: sk}, nil
}

// Add folds one device's final snapshot. Callers must add snapshots in
// device-index order for bit-exact reproducibility.
func (f *FleetStats) Add(s wire.StatsSnapshot) {
	f.devices++
	f.energy.Add(s.EnergyJ)
	f.delay.Add(s.AvgDelayS)
	f.violation.Add(s.ViolationRatio)
	f.delaySketch.Add(s.AvgDelayS)
	f.dataPackets += s.DataPackets
	f.heartbeats += s.Heartbeats
	f.forcedFlush += s.ForcedFlush
}

// FleetReport is the machine-readable aggregate, with floats carried
// bit-exactly (shortest round-trip form under encoding/json).
type FleetReport struct {
	Devices uint64 `json:"devices"`

	EnergyMeanJ float64 `json:"energy_mean_j"`
	EnergyMinJ  float64 `json:"energy_min_j"`
	EnergyMaxJ  float64 `json:"energy_max_j"`

	DelayMeanS float64 `json:"delay_mean_s"`
	DelayP50S  float64 `json:"delay_p50_s"`
	DelayP90S  float64 `json:"delay_p90_s"`
	DelayP99S  float64 `json:"delay_p99_s"`

	ViolationMean float64 `json:"violation_mean"`

	DataPackets uint64 `json:"data_packets"`
	Heartbeats  uint64 `json:"heartbeats"`
	ForcedFlush uint64 `json:"forced_flush"`
}

// Report renders the aggregate. An empty accumulator reports zeros.
func (f *FleetStats) Report() FleetReport {
	r := FleetReport{
		Devices:     f.devices,
		DataPackets: f.dataPackets,
		Heartbeats:  f.heartbeats,
		ForcedFlush: f.forcedFlush,
	}
	if f.devices == 0 {
		return r
	}
	r.EnergyMeanJ, r.EnergyMinJ, r.EnergyMaxJ = f.energy.Mean(), f.energy.Min(), f.energy.Max()
	r.DelayMeanS = f.delay.Mean()
	r.DelayP50S = fleetQuantile(f.delaySketch, 50)
	r.DelayP90S = fleetQuantile(f.delaySketch, 90)
	r.DelayP99S = fleetQuantile(f.delaySketch, 99)
	r.ViolationMean = f.violation.Mean()
	return r
}

// WriteText renders the report as fixed-order text lines, every one
// prefixed with "fleet" — the block CI extracts and byte-compares between
// a cluster run and a single-process run of the same device set. Floats
// use the shortest round-trip form, so equal bits render to equal bytes.
func (r FleetReport) WriteText(w io.Writer) error {
	lines := []struct {
		name  string
		value string
	}{
		{"devices", strconv.FormatUint(r.Devices, 10)},
		{"energy_j", "mean " + g(r.EnergyMeanJ) + " min " + g(r.EnergyMinJ) + " max " + g(r.EnergyMaxJ)},
		{"delay_s", "mean " + g(r.DelayMeanS) + " p50 " + g(r.DelayP50S) + " p90 " + g(r.DelayP90S) + " p99 " + g(r.DelayP99S)},
		{"violation", "mean " + g(r.ViolationMean)},
		{"packets", fmt.Sprintf("data %d heartbeats %d forced_flush %d", r.DataPackets, r.Heartbeats, r.ForcedFlush)},
	}
	for _, l := range lines {
		if _, err := fmt.Fprintf(w, "fleet %-10s %s\n", l.name, l.value); err != nil {
			return err
		}
	}
	return nil
}

// g renders one float in shortest round-trip form.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// fleetQuantile reads one sketch percentile, mapping the empty-sketch
// error to 0 (unreachable here: callers check devices > 0).
func fleetQuantile(s *stats.Sketch, p float64) float64 {
	v, err := s.Quantile(p)
	if err != nil {
		return 0
	}
	return v
}
