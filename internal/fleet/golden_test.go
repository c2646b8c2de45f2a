package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"etrain/internal/diurnal"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenFleet is one pinned population: the etrain-fleet defaults (seed
// 42, Θ 4, k 20, the 10-minute session) at a size the test suite can run.
type goldenFleet struct {
	name string
	cfg  func(t *testing.T) Config
}

var goldenFleets = []goldenFleet{
	{"default-1024", func(t *testing.T) Config {
		return Config{Devices: 1024, Seed: 42, Theta: 4}
	}},
	{"week-lte-drx-512", func(t *testing.T) Config {
		prof, err := diurnal.ByName("week")
		if err != nil {
			t.Fatal(err)
		}
		p := *prof
		p.TimeScale = 1008
		return Config{Devices: 512, Seed: 42, Theta: 4, Diurnal: &p, Radio: "lte-drx"}
	}},
}

// default3000 is the fleet of testdata/default-3000.report: the
// etrain-fleet defaults at 3000 devices, 12 shards of up to 256.
func default3000() Config {
	return Config{Devices: 3000, Seed: 42, Theta: 4}
}

// goldenLines renders what TestGoldenAggregates pins: the config hash,
// then one line per class row and the total, each aggregate in its
// checkpoint JSON, which carries every moment and sketch bin in full
// precision.
func goldenLines(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "config_hash %s\n", rep.ConfigHash)
	line := func(label string, agg *ClassAggregate) {
		js, err := json.Marshal(agg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s %s\n", label, js)
	}
	for i := range rep.Classes {
		line(rep.Classes[i].Label, &rep.Classes[i].Agg)
	}
	line("all", &rep.Total)
	return buf.Bytes()
}

// TestGoldenAggregates pins the per-class fleet aggregates bit for bit.
// The rendered report rounds means to 0.01 J and quantiles to 0.01%, so a
// decision that moves one device's energy by a few millijoules leaves it
// unchanged; the aggregates' JSON does not. Worker-count determinism
// cannot catch such a change either, since every worker count would move
// alike. Regenerate with
//
//	go test ./internal/fleet -run TestGoldenAggregates -update
func TestGoldenAggregates(t *testing.T) {
	for _, g := range goldenFleets {
		t.Run(g.name, func(t *testing.T) {
			got := goldenLines(t, mustRun(t, g.cfg(t)))
			path := filepath.Join("testdata", g.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record the golden file)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("fleet aggregates drifted from %s (re-record with -update if intended):\n--- want ---\n%s--- got ---\n%s",
					path, want, got)
			}
		})
	}
}

// TestGoldenAfterOtherFleet runs a fleet under other options, Θ=0, k=1
// and lte-drx, before the default one in the same process, so the default
// fleet's shards take the scratches the first fleet returned to the pool.
// The default fleet must still match its golden file: a pooled scratch
// carries nothing from one fleet to the next.
func TestGoldenAfterOtherFleet(t *testing.T) {
	mustRun(t, Config{Devices: 512, Seed: 42, Theta: 0, K: 1, Radio: "lte-drx"})
	g := goldenFleets[0]
	got := goldenLines(t, mustRun(t, g.cfg(t)))
	want, err := os.ReadFile(filepath.Join("testdata", g.name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s after a Θ=0, k=1, lte-drx fleet drifted from its golden file:\n--- want ---\n%s--- got ---\n%s", g.name, want, got)
	}
}

// TestGoldenReport pins the rendered report of the default3000 fleet at 1
// and 8 workers to testdata/default-3000.report, which is what
// `etrain-fleet -devices 3000 -quiet` prints.
func TestGoldenReport(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "default-3000.report"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers_%d", workers), func(t *testing.T) {
			cfg := default3000()
			cfg.Workers = workers
			if got := renderReport(t, mustRun(t, cfg)); got != string(want) {
				t.Errorf("report drifted from testdata/default-3000.report:\n--- want ---\n%s--- got ---\n%s", want, got)
			}
		})
	}
}
