package sim

import "time"

// Metrics is the compact, fixed-size summary of one run that
// population-scale aggregation folds into streaming accumulators. Unlike
// Result it holds no per-packet state, so a fleet of a million devices
// carries O(1) memory per device instead of O(packets).
type Metrics struct {
	// EnergyJ is the run's total radio energy in joules.
	EnergyJ float64
	// AvgDelayS is the normalized (mean per-packet) delay in seconds.
	AvgDelayS float64
	// ViolationRatio is the fraction of data packets past their deadline.
	ViolationRatio float64
	// DataPackets counts transmitted cargo packets.
	DataPackets int
	// Heartbeats counts heartbeat transmissions.
	Heartbeats int
	// ForcedFlush counts packets drained unscheduled at the horizon.
	ForcedFlush int
}

// Metrics summarizes the run.
func (r *Result) Metrics() Metrics {
	var s packetSummary
	for _, p := range r.Packets {
		s.add(p)
	}
	return s.metrics(r)
}

// packetSummary folds data packets into exactly what NormalizedDelay and
// DeadlineViolationRatio read from Result.Packets, without keeping them.
type packetSummary struct {
	count, violated int
	delay           time.Duration
}

func (s *packetSummary) add(p PacketStat) {
	s.count++
	s.delay += p.Delay
	if p.Violated {
		s.violated++
	}
}

// metrics is the Metrics of a run whose data packets s folded and whose
// energy and counts r holds: the one place a run's summary becomes its
// Metrics, so a Result's and a summary-only engine's agree bit for bit.
func (s *packetSummary) metrics(r *Result) Metrics {
	m := Metrics{
		EnergyJ:     r.Energy.Total(),
		DataPackets: s.count,
		Heartbeats:  r.HeartbeatCount,
		ForcedFlush: r.ForcedFlushCount,
	}
	if s.count > 0 {
		m.AvgDelayS = (s.delay / time.Duration(s.count)).Seconds()
		m.ViolationRatio = float64(s.violated) / float64(s.count)
	}
	return m
}

// Metrics returns the Metrics of e's finished summary-only run (RunMetrics
// or Reset): equal to Run(cfg).Metrics() for the run's whole event set.
func (e *Engine) Metrics() Metrics {
	return e.summary.metrics(e.res)
}

// RunMetrics runs cfg like Run and returns only the run's Metrics, equal
// to Run(cfg).Metrics(). It builds no per-packet record, so a caller that
// reads nothing else, such as a fleet device or a scenario's direct run,
// allocates less.
func RunMetrics(cfg Config) (Metrics, error) {
	return new(Engine).RunMetrics(cfg)
}

// RunMetrics is the package's RunMetrics on e: it re-initialises e for cfg
// in place, reusing its queues and result, so a caller that runs many
// configs in turn, such as a fleet shard, allocates nothing per run once
// the buffers have grown. It reads cfg's event slices without copying
// them. Any earlier run of e, incremental or not, is abandoned.
func (e *Engine) RunMetrics(cfg Config) (Metrics, error) {
	if err := e.init(cfg, true, false); err != nil {
		return Metrics{}, err
	}
	if _, err := e.Finish(); err != nil {
		return Metrics{}, err
	}
	return e.Metrics(), nil
}
