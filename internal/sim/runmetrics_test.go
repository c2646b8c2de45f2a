package sim_test

import (
	"testing"

	"etrain/internal/sim"
	"etrain/internal/workload"
)

// TestRunMetricsMatchesRun checks that the summary-only run the fleet uses
// reports exactly Run's Metrics, over the differential test's strategy
// space and devices, every tenth with no cargo at all.
func TestRunMetricsMatchesRun(t *testing.T) {
	pop, err := workload.NewPopulation(workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	const devices = 420
	for i := 0; i < devices; i++ {
		c := skipCaseFor(i)
		cfg := skipConfig(t, pop, i, c)
		if i%10 == 9 {
			cfg.Packets = nil
		}
		seed := int64(i)
		res, err := sim.Run(withStrategy(cfg, c, false, seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.RunMetrics(withStrategy(cfg, c, false, seed))
		if err != nil {
			t.Fatal(err)
		}
		if want := res.Metrics(); got != want {
			t.Fatalf("device %d (%s): RunMetrics differs from Run:\n got %+v\nwant %+v", i, c.name, got, want)
		}
	}
}
