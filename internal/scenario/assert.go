package scenario

import (
	"fmt"

	"etrain/internal/fleet"
	"etrain/internal/stats"
	"etrain/internal/workload"
)

// Metric names an assertion can observe. Per-class metrics accept a
// class scope; transport metrics are fleet-wide (class "all" only) and
// read 0 under the direct engine, where no transport exists to fail.
var (
	classMetrics = []string{
		"devices",
		"saving_mean", "saving_p10", "saving_p50", "saving_p90",
		"saved_j_mean", "saved_j_p50",
		"energy_with_mean", "energy_without_mean",
		"delay_mean", "delay_p50", "delay_p90", "delay_p99",
		"violation_mean",
	}
	fleetMetrics = []string{
		"sessions_failed", "degraded_sessions", "degraded_rate",
		"unreconciled_sessions", "unreconciled_rate",
		"decision_loss", "reconnects", "resumes", "replays", "restarts",
		"busy_responses", "retry_budget_exhausted",
	}
)

// validateAssertion checks one predicate's metric, scope and bounds.
func validateAssertion(a Assertion, mix []workload.ClassShare) error {
	isClass := contains(classMetrics, a.Metric)
	isFleet := contains(fleetMetrics, a.Metric)
	if !isClass && !isFleet {
		return fmt.Errorf("unknown metric %q", a.Metric)
	}
	switch {
	case a.Class == "" || a.Class == "all":
	case isFleet:
		return fmt.Errorf("metric %s is fleet-wide; class %q not allowed", a.Metric, a.Class)
	default:
		class, err := workload.ParseClass(a.Class)
		if err != nil {
			return err
		}
		found := false
		for _, s := range mix {
			if s.Class == class {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("class %q is not in the fleet mix", a.Class)
		}
	}
	if a.Min == nil && a.Max == nil {
		return fmt.Errorf("metric %s: at least one of min/max is required", a.Metric)
	}
	if bad(a.Min) || bad(a.Max) {
		return fmt.Errorf("metric %s: min/max must be finite", a.Metric)
	}
	if a.Min != nil && a.Max != nil && *a.Min > *a.Max {
		return fmt.Errorf("metric %s: min %g exceeds max %g", a.Metric, *a.Min, *a.Max)
	}
	return nil
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func bad(v *float64) bool {
	if v == nil {
		return false
	}
	return *v != *v || *v > 1e308 || *v < -1e308
}

// transportTally counts the loopback engine's healing outcomes. Under
// the direct engine it stays zero.
type transportTally struct {
	failed       int // sessions that died on a protocol/engine error
	degraded     int // sessions that fell back to local scheduling
	unreconciled int // degraded sessions that finished locally, never reconciling
	decisionLoss int // sessions whose stream diverged from the local replay
	reconnects   int
	resumes      int
	replays      int
	restarts     int // devices whose connection the server_restart cut killed
	busy         int // wire.Busy frames received (hello refusals and cargo sheds)
	exhausted    int // busy-retry budget exhaustions across the fleet
}

// outcomeSet is everything assertions (and the report) observe:
// per-class and fleet-wide aggregates plus the transport tally.
type outcomeSet struct {
	labels  []string // mix-order class labels
	byClass []fleet.ClassAggregate
	total   fleet.ClassAggregate
	tally   transportTally
	devices int
}

func newOutcomeSet(mix []workload.ClassShare) (*outcomeSet, error) {
	set := &outcomeSet{byClass: make([]fleet.ClassAggregate, len(mix))}
	var err error
	if set.total, err = fleet.NewClassAggregate(stats.DefaultSketchAlpha); err != nil {
		return nil, err
	}
	for i, s := range mix {
		set.labels = append(set.labels, s.Class.String())
		if set.byClass[i], err = fleet.NewClassAggregate(stats.DefaultSketchAlpha); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// add folds one device outcome in index order.
func (set *outcomeSet) add(o *deviceResult) error {
	set.devices++
	if o.failed {
		set.tally.failed++
		return nil
	}
	if o.ClassIndex < 0 || o.ClassIndex >= len(set.byClass) {
		return fmt.Errorf("scenario: device class index %d outside mix", o.ClassIndex)
	}
	set.byClass[o.ClassIndex].Add(o.DeviceOutcome)
	set.total.Add(o.DeviceOutcome)
	if o.degraded {
		set.tally.degraded++
	}
	if o.unreconciled {
		set.tally.unreconciled++
	}
	if o.decisionLoss {
		set.tally.decisionLoss++
	}
	set.tally.reconnects += o.reconnects
	set.tally.resumes += o.resumes
	set.tally.replays += o.replays
	set.tally.busy += o.busy
	set.tally.exhausted += o.exhausted
	if o.restarted {
		set.tally.restarts++
	}
	return nil
}

// agg resolves an assertion's class scope.
func (set *outcomeSet) agg(class string) (*fleet.ClassAggregate, error) {
	if class == "" || class == "all" {
		return &set.total, nil
	}
	for i, label := range set.labels {
		if label == class {
			return &set.byClass[i], nil
		}
	}
	return nil, fmt.Errorf("class %q is not in the fleet mix", class)
}

// metric evaluates one named observation.
func (set *outcomeSet) metric(name, class string) (float64, error) {
	if contains(fleetMetrics, name) {
		t := set.tally
		switch name {
		case "sessions_failed":
			return float64(t.failed), nil
		case "degraded_sessions":
			return float64(t.degraded), nil
		case "degraded_rate":
			return rate(t.degraded, set.devices), nil
		case "unreconciled_sessions":
			return float64(t.unreconciled), nil
		case "unreconciled_rate":
			return rate(t.unreconciled, set.devices), nil
		case "decision_loss":
			return float64(t.decisionLoss), nil
		case "reconnects":
			return float64(t.reconnects), nil
		case "resumes":
			return float64(t.resumes), nil
		case "replays":
			return float64(t.replays), nil
		case "restarts":
			return float64(t.restarts), nil
		case "busy_responses":
			return float64(t.busy), nil
		case "retry_budget_exhausted":
			return float64(t.exhausted), nil
		}
	}
	a, err := set.agg(class)
	if err != nil {
		return 0, err
	}
	switch name {
	case "devices":
		return float64(a.Devices), nil
	case "saving_mean":
		return mean(a.Saving)
	case "saving_p10":
		return a.SavingSketch.Quantile(10)
	case "saving_p50":
		return a.SavingSketch.Quantile(50)
	case "saving_p90":
		return a.SavingSketch.Quantile(90)
	case "saved_j_mean":
		return mean(a.SavedJ)
	case "saved_j_p50":
		return a.SavedSketch.Quantile(50)
	case "energy_with_mean":
		return mean(a.WithJ)
	case "energy_without_mean":
		return mean(a.WithoutJ)
	case "delay_mean":
		return mean(a.DelayS)
	case "delay_p50":
		return a.DelaySketch.Quantile(50)
	case "delay_p90":
		return a.DelaySketch.Quantile(90)
	case "delay_p99":
		return a.DelaySketch.Quantile(99)
	case "violation_mean":
		return mean(a.Violation)
	default:
		return 0, fmt.Errorf("unknown metric %q", name)
	}
}

func mean(m stats.Moments) (float64, error) {
	if m.N() == 0 {
		return 0, fmt.Errorf("no observations")
	}
	return m.Mean(), nil
}

func rate(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

// evaluate runs every assertion against the outcome set.
func (set *outcomeSet) evaluate(asserts []Assertion) []AssertionResult {
	results := make([]AssertionResult, 0, len(asserts))
	for _, a := range asserts {
		r := AssertionResult{Metric: a.Metric, Class: classLabel(a.Class), Min: a.Min, Max: a.Max}
		v, err := set.metric(a.Metric, a.Class)
		if err != nil {
			r.Error = err.Error()
		} else {
			r.Observed = v
			r.Pass = (a.Min == nil || v >= *a.Min) && (a.Max == nil || v <= *a.Max)
		}
		results = append(results, r)
	}
	return results
}

func classLabel(class string) string {
	if class == "" {
		return "all"
	}
	return class
}
