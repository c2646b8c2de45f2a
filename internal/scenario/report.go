package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"

	"etrain/internal/fleet"
	"etrain/internal/stats"
)

// Report is a scenario run's machine-readable outcome. Every field is
// a pure function of the scenario document, so both the JSON encoding
// and the Fprint text rendering are byte-identical across runs and
// worker counts — which is what lets the golden corpus pin them.
type Report struct {
	// Scenario, Engine, Devices, Seed, Horizon, Theta and K echo the
	// effective configuration.
	Scenario string   `json:"scenario"`
	Engine   string   `json:"engine"`
	Devices  int      `json:"devices"`
	Seed     int64    `json:"seed"`
	Horizon  Duration `json:"horizon"`
	Theta    float64  `json:"theta"`
	K        int      `json:"k"`
	// Events is the timeline length.
	Events int `json:"timeline_events"`
	// ConfigHash names the scenario's simulation identity.
	ConfigHash string `json:"config_hash"`
	// Classes holds one row per mix entry, in mix order; Total spans
	// the fleet.
	Classes []ClassSummary `json:"classes"`
	Total   ClassSummary   `json:"total"`
	// Transport summarizes the loopback healing outcomes; nil under the
	// direct engine.
	Transport *TransportSummary `json:"transport,omitempty"`
	// Assertions holds one result per assert entry, in declaration
	// order; Pass is their conjunction (vacuously true with none).
	Assertions []AssertionResult `json:"assertions"`
	Pass       bool              `json:"pass"`
}

// ClassSummary is one class's (or the fleet's) aggregate row. Floats
// are quantized to six decimals so renderings stay readable and
// byte-stable.
type ClassSummary struct {
	Label        string  `json:"label"`
	Devices      int     `json:"devices"`
	WithoutJMean float64 `json:"without_j_mean"`
	WithJMean    float64 `json:"with_j_mean"`
	SavedJMean   float64 `json:"saved_j_mean"`
	SavingMean   float64 `json:"saving_mean"`
	SavingP10    float64 `json:"saving_p10"`
	SavingP50    float64 `json:"saving_p50"`
	SavingP90    float64 `json:"saving_p90"`
	DelayMeanS   float64 `json:"delay_mean_s"`
	DelayP50S    float64 `json:"delay_p50_s"`
	DelayP99S    float64 `json:"delay_p99_s"`
	Violation    float64 `json:"violation_mean"`
}

// TransportSummary is the loopback engine's fleet-wide healing tally.
type TransportSummary struct {
	SessionsOK   int `json:"sessions_ok"`
	Failed       int `json:"sessions_failed"`
	Degraded     int `json:"degraded"`
	Unreconciled int `json:"unreconciled"`
	DecisionLoss int `json:"decision_loss"`
	Reconnects   int `json:"reconnects"`
	Resumes      int `json:"resumes"`
	Replays      int `json:"replays"`
	Restarts     int `json:"restarts"`
	// BusyResponses and BudgetExhausted appear only under an
	// overload_burst timeline (omitempty keeps older reports, and the
	// goldens pinning them, byte-identical).
	BusyResponses   int `json:"busy_responses,omitempty"`
	BudgetExhausted int `json:"retry_budget_exhausted,omitempty"`
}

// AssertionResult is one evaluated predicate.
type AssertionResult struct {
	Metric   string   `json:"metric"`
	Class    string   `json:"class"`
	Min      *float64 `json:"min,omitempty"`
	Max      *float64 `json:"max,omitempty"`
	Observed float64  `json:"observed"`
	Pass     bool     `json:"pass"`
	// Error reports an unevaluable metric (empty class, for instance);
	// it fails the assertion.
	Error string `json:"error,omitempty"`
}

// buildReport assembles the report from the folded outcome set.
func buildReport(c *compiled, hash string, set *outcomeSet) *Report {
	engine := EngineDirect
	if c.loopback {
		engine = EngineLoopback
	}
	r := &Report{
		Scenario:   c.sc.Name,
		Engine:     engine,
		Devices:    c.sc.Fleet.Devices,
		Seed:       c.sc.Seed,
		Horizon:    c.sc.Horizon,
		Theta:      c.theta,
		K:          c.k,
		Events:     len(c.sc.Timeline),
		ConfigHash: hash,
		Total:      summarize("all", &set.total),
	}
	for i, label := range set.labels {
		r.Classes = append(r.Classes, summarize(label, &set.byClass[i]))
	}
	if c.loopback {
		t := set.tally
		r.Transport = &TransportSummary{
			SessionsOK:      set.devices - t.failed,
			Failed:          t.failed,
			Degraded:        t.degraded,
			Unreconciled:    t.unreconciled,
			DecisionLoss:    t.decisionLoss,
			Reconnects:      t.reconnects,
			Resumes:         t.resumes,
			Replays:         t.replays,
			Restarts:        t.restarts,
			BusyResponses:   t.busy,
			BudgetExhausted: t.exhausted,
		}
	}
	r.Assertions = set.evaluate(c.sc.Assert)
	r.Pass = true
	for _, a := range r.Assertions {
		r.Pass = r.Pass && a.Pass
	}
	return r
}

// summarize renders one aggregate as a summary row.
func summarize(label string, a *fleet.ClassAggregate) ClassSummary {
	return ClassSummary{
		Label:        label,
		Devices:      a.Devices,
		WithoutJMean: round6(meanOr0(a.WithoutJ)),
		WithJMean:    round6(meanOr0(a.WithJ)),
		SavedJMean:   round6(meanOr0(a.SavedJ)),
		SavingMean:   round6(meanOr0(a.Saving)),
		SavingP10:    round6(quantileOr0(a.SavingSketch, 10)),
		SavingP50:    round6(quantileOr0(a.SavingSketch, 50)),
		SavingP90:    round6(quantileOr0(a.SavingSketch, 90)),
		DelayMeanS:   round6(meanOr0(a.DelayS)),
		DelayP50S:    round6(quantileOr0(a.DelaySketch, 50)),
		DelayP99S:    round6(quantileOr0(a.DelaySketch, 99)),
		Violation:    round6(meanOr0(a.Violation)),
	}
}

func meanOr0(m stats.Moments) float64 {
	if m.N() == 0 {
		return 0
	}
	return m.Mean()
}

func quantileOr0(s *stats.Sketch, p float64) float64 {
	v, err := s.Quantile(p)
	if err != nil {
		return 0
	}
	return v
}

// round6 quantizes to six decimals: enough resolution for every
// reported metric, few enough digits for stable, readable renderings.
func round6(v float64) float64 {
	scaled := v * 1e6
	if scaled >= 0 {
		scaled += 0.5
	} else {
		scaled -= 0.5
	}
	return float64(int64(scaled)) / 1e6
}

// EncodeJSON renders the report canonically.
func (r *Report) EncodeJSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encode report: %w", err)
	}
	return append(b, '\n'), nil
}

// Fprint renders the report as a deterministic aligned-text document —
// the form the golden corpus pins byte for byte.
func (r *Report) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"eTrain scenario report: %s\nengine=%s devices=%d seed=%d horizon=%s theta=%g k=%d events=%d\nconfig_hash=%s\n\n",
		r.Scenario, r.Engine, r.Devices, r.Seed, r.Horizon, r.Theta, r.K, r.Events, r.ConfigHash,
	); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "class\tdevices\twithout_J\twith_J\tsaved_J\tsaving\tsaving_p10\tsaving_p50\tsaving_p90\tdelay_s\tdelay_s_p99\tviolation")
	for i := range r.Classes {
		printSummaryRow(tw, &r.Classes[i])
	}
	printSummaryRow(tw, &r.Total)
	if err := tw.Flush(); err != nil {
		return err
	}
	if t := r.Transport; t != nil {
		line := fmt.Sprintf(
			"\ntransport ok=%d failed=%d degraded=%d unreconciled=%d decision_loss=%d reconnects=%d resumes=%d replays=%d restarts=%d",
			t.SessionsOK, t.Failed, t.Degraded, t.Unreconciled, t.DecisionLoss, t.Reconnects, t.Resumes, t.Replays, t.Restarts,
		)
		// Overload counters render only when present, so reports (and
		// goldens) from scenarios without an overload_burst keep their
		// exact historical bytes.
		if t.BusyResponses > 0 || t.BudgetExhausted > 0 {
			line += fmt.Sprintf(" busy=%d budget_exhausted=%d", t.BusyResponses, t.BudgetExhausted)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	if len(r.Assertions) > 0 {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		for _, a := range r.Assertions {
			if err := printAssertion(w, a); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintf(w, "\nresult %s\n", passLabel(r.Pass))
	return err
}

func printSummaryRow(w io.Writer, s *ClassSummary) {
	fmt.Fprintf(w, "%s\t%d\t%.2f\t%.2f\t%.2f\t%.4f\t%.4f\t%.4f\t%.4f\t%.3f\t%.3f\t%.4f\n",
		s.Label, s.Devices,
		s.WithoutJMean, s.WithJMean, s.SavedJMean,
		s.SavingMean, s.SavingP10, s.SavingP50, s.SavingP90,
		s.DelayMeanS, s.DelayP99S, s.Violation,
	)
}

func printAssertion(w io.Writer, a AssertionResult) error {
	bounds := ""
	if a.Min != nil {
		bounds += fmt.Sprintf(" min=%g", *a.Min)
	}
	if a.Max != nil {
		bounds += fmt.Sprintf(" max=%g", *a.Max)
	}
	if a.Error != "" {
		_, err := fmt.Fprintf(w, "assert %s %s (class %s): error: %s%s\n",
			passLabel(false), a.Metric, a.Class, a.Error, bounds)
		return err
	}
	_, err := fmt.Fprintf(w, "assert %s %s (class %s) = %.6g%s\n",
		passLabel(a.Pass), a.Metric, a.Class, a.Observed, bounds)
	return err
}

func passLabel(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}
