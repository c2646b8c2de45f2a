package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"etrain/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenOptions pins the rendering inputs: any drift in seed, horizon or
// worker count would change the tables, not just the code under test. The
// 8-worker pool doubles as a standing check that parallel rendering stays
// byte-stable against goldens recorded once.
func goldenOptions() Options {
	return Options{
		Seed:    5,
		Horizon: 5400 * time.Second,
		Workers: 8,
		Runner:  sim.NewRunner(8),
	}
}

// TestGoldenTables locks the exact rendered text of representative tables:
// a measurement experiment (fig1a), a single-strategy sweep (fig7a), the
// comparative E-D panel (fig8a), the λ sweep that calibrates eTrain,
// PerES and eTime to one delay (fig8b), the two fleet-engine experiments
// (fig11pop, fig-diurnal) and the ablations that exercise every selection
// policy, the channel gate, the predictive monitor and the offline
// optimum. The fleet tables pin fleet output across commits, which the
// worker-count determinism suites cannot. Regenerate with
//
//	go test ./internal/experiments -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	opts := goldenOptions()
	ids := []string{
		"fig1a", "fig7a", "fig8a", "fig8b", "fig11pop", "fig-diurnal",
		"abl-greedy-policy", "abl-channel-oracle", "abl-predictive-monitor", "abl-offline-gap",
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			entry, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := entry.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tbl.Fprint(&buf); err != nil {
				t.Fatal(err)
			}

			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record the golden file)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("rendered table drifted from %s (re-record with -update if intended):\n--- want ---\n%s--- got ---\n%s",
					path, want, buf.Bytes())
			}
		})
	}
}
