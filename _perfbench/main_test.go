package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// tinySizes runs every workload in well under a second.
var tinySizes = sizes{
	setups:       1,
	heavyConfigs: 1,
	lightConfigs: 2,
	heavyDevices: 16,
	lightDevices: 8,
	warmDevices:  8,
	allocSample:  8,
	pool:         16,
	lightRate:    200,
	heavyRate:    400,
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestEveryWorkloadEmitsEveryMetric runs every workload of BENCHMARK.json
// at tiny size, untraced and traced, and checks that the run is correct
// and reports exactly the metrics BENCHMARK.json names, with their units.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bf := readBenchmark(t)
	if len(bf.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, wl := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			var out bytes.Buffer
			res, err := execute(options{workload: wl.Name, seed: 1, seconds: 0.3, trace: trace, size: tinySizes}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl.Name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					wl.Name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, name)
					continue
				}
				if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", wl.Name, trace, name, m.Unit, unit)
				}
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestRejectsBadFlags checks the command-line contract.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--seconds", "0"},
		{"--trace", "2"},
		{"--bogus"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	if _, err := execute(options{workload: "nope", seconds: 1, size: tinySizes}, &bytes.Buffer{}); err == nil {
		t.Error("unknown workload accepted")
	}
}
