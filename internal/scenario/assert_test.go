package scenario

import (
	"math"
	"strings"
	"testing"

	"etrain/internal/fleet"
	"etrain/internal/workload"
)

func f64(v float64) *float64 { return &v }

// fill builds an outcomeSet over the default mix from a fixed list of
// device outcomes, so metric values are hand-checkable.
func fill(t *testing.T, results []*deviceResult) *outcomeSet {
	t.Helper()
	set, err := newOutcomeSet(workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if err := set.add(r); err != nil {
			t.Fatal(err)
		}
	}
	return set
}

// sampleSet has one active device, one moderate device, and one failed
// session. The failed session must count in rates but never in energy
// aggregates.
func sampleSet(t *testing.T) *outcomeSet {
	t.Helper()
	return fill(t, []*deviceResult{
		{DeviceOutcome: fleet.DeviceOutcome{ClassIndex: 0, WithoutJ: 10, WithJ: 6, DelayS: 2, Violation: 0.5},
			degraded: true, restarted: true, reconnects: 3, resumes: 2, replays: 1},
		{DeviceOutcome: fleet.DeviceOutcome{ClassIndex: 1, WithoutJ: 20, WithJ: 15, DelayS: 4, Violation: 0.25},
			degraded: true, unreconciled: true, decisionLoss: true},
		{failed: true},
	})
}

func TestMetricValues(t *testing.T) {
	set := sampleSet(t)
	cases := []struct {
		metric, class string
		want          float64
	}{
		{"devices", "", 2},
		{"devices", "all", 2},
		{"devices", "active", 1},
		{"devices", "moderate", 1},
		{"devices", "inactive", 0},
		{"energy_without_mean", "", 15},
		{"energy_with_mean", "", 10.5},
		{"saved_j_mean", "", 4.5},
		{"saving_mean", "active", 0.4},
		{"saving_mean", "moderate", 0.25},
		{"saving_mean", "", 0.325},
		{"delay_mean", "", 3},
		{"violation_mean", "", 0.375},
		{"sessions_failed", "", 1},
		{"degraded_sessions", "", 2},
		{"degraded_rate", "", 2.0 / 3},
		{"unreconciled_sessions", "", 1},
		{"unreconciled_rate", "", 1.0 / 3},
		{"decision_loss", "", 1},
		{"reconnects", "", 3},
		{"resumes", "", 2},
		{"replays", "", 1},
		{"restarts", "", 1},
	}
	for _, tc := range cases {
		got, err := set.metric(tc.metric, tc.class)
		if err != nil {
			t.Errorf("%s (class %q): %v", tc.metric, tc.class, err)
			continue
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s (class %q) = %g, want %g", tc.metric, tc.class, got, tc.want)
		}
	}
}

// TestAssertionBounds drives every metric through evaluate with pass,
// fail and exact-boundary predicates. Boundaries are inclusive: an
// observation equal to min or max passes.
func TestAssertionBounds(t *testing.T) {
	set := sampleSet(t)
	check := func(metric string, min, max *float64, wantPass bool) {
		t.Helper()
		res := set.evaluate([]Assertion{{Metric: metric, Min: min, Max: max}})
		if len(res) != 1 {
			t.Fatalf("%s: %d results", metric, len(res))
		}
		if res[0].Error != "" {
			t.Errorf("%s: unexpected error %q", metric, res[0].Error)
			return
		}
		if res[0].Pass != wantPass {
			t.Errorf("%s min=%v max=%v observed=%g: pass=%v, want %v",
				metric, fmtPtr(min), fmtPtr(max), res[0].Observed, res[0].Pass, wantPass)
		}
	}
	all := append(append([]string{}, classMetrics...), fleetMetrics...)
	for _, m := range all {
		obs, err := set.metric(m, "")
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		check(m, f64(obs), f64(obs), true)     // boundary: inclusive on both sides
		check(m, f64(obs-1), f64(obs+1), true) // pass: strictly inside
		check(m, f64(obs+0.5), nil, false)     // fail: below min
		check(m, nil, f64(obs-0.5), false)     // fail: above max
	}
}

func fmtPtr(v *float64) any {
	if v == nil {
		return nil
	}
	return *v
}

// TestAssertionErrors pins the error paths evaluate reports instead of
// a pass/fail verdict: empty-class aggregates and unknown classes.
func TestAssertionErrors(t *testing.T) {
	empty := fill(t, nil)
	res := empty.evaluate([]Assertion{
		{Metric: "saving_mean", Min: f64(0)},
		{Metric: "saving_mean", Class: "vip", Min: f64(0)},
		{Metric: "sessions_failed", Max: f64(0)},
	})
	if res[0].Pass || !strings.Contains(res[0].Error, "no observations") {
		t.Errorf("empty-set mean: %+v", res[0])
	}
	if res[1].Pass || !strings.Contains(res[1].Error, "not in the fleet mix") {
		t.Errorf("unknown class: %+v", res[1])
	}
	// Fleet tallies are well-defined on an empty set: zero.
	if !res[2].Pass || res[2].Observed != 0 {
		t.Errorf("empty-set tally: %+v", res[2])
	}
}

func TestValidateAssertionTable(t *testing.T) {
	mix := workload.DefaultMix()
	nan := math.NaN()
	cases := []struct {
		name string
		a    Assertion
		want string // "" means valid
	}{
		{"class metric ok", Assertion{Metric: "saving_mean", Class: "active", Min: f64(0)}, ""},
		{"fleet metric ok", Assertion{Metric: "restarts", Class: "all", Max: f64(3)}, ""},
		{"both bounds ok", Assertion{Metric: "devices", Min: f64(1), Max: f64(1)}, ""},
		{"unknown metric", Assertion{Metric: "vibes", Min: f64(0)}, "unknown metric"},
		{"fleet metric scoped", Assertion{Metric: "reconnects", Class: "active", Min: f64(0)}, "fleet-wide"},
		{"bad class name", Assertion{Metric: "saving_mean", Class: "vip", Min: f64(0)}, "class"},
		{"no bounds", Assertion{Metric: "devices"}, "min/max"},
		{"nan bound", Assertion{Metric: "devices", Min: &nan}, "finite"},
		{"inverted bounds", Assertion{Metric: "devices", Min: f64(2), Max: f64(1)}, "exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateAssertion(tc.a, mix)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("rejected valid assertion: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted %+v", tc.a)
			}
			if !strings.Contains(strings.ToLower(err.Error()), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateAssertionMixScope checks the class-in-mix test against a
// narrowed fleet mix: a real class that the scenario's fleet does not
// include must be rejected.
func TestValidateAssertionMixScope(t *testing.T) {
	narrow := []workload.ClassShare{{Class: workload.ClassActive, Weight: 1}}
	a := Assertion{Metric: "saving_mean", Class: "inactive", Min: f64(0)}
	err := validateAssertion(a, narrow)
	if err == nil || !strings.Contains(err.Error(), "not in the fleet mix") {
		t.Errorf("out-of-mix class: %v", err)
	}
	a.Class = "active"
	if err := validateAssertion(a, narrow); err != nil {
		t.Errorf("in-mix class rejected: %v", err)
	}
}
