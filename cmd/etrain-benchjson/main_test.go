package main

import (
	"os"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: etrain/internal/fleet
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkDevicePair 	      20	   1402296 ns/op	  250296 B/op	    2963 allocs/op
BenchmarkFleet10k-8 	       1	28000000000 ns/op
PASS
ok  	etrain/internal/fleet	0.034s
pkg: etrain/internal/stats
BenchmarkSketchAdd-8   	12345678	        95.31 ns/op	       0 B/op	       0 allocs/op
testing: some unrelated chatter
Benchmark
ok  	etrain/internal/stats	1.2s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d entries, want 3: %v", len(got), got)
	}
	pair := got["etrain/internal/fleet.BenchmarkDevicePair"]
	if pair.NsPerOp != 1402296 || pair.BytesPerOp != 250296 || pair.AllocsPerOp != 2963 {
		t.Errorf("DevicePair = %+v", pair)
	}
	fleet := got["etrain/internal/fleet.BenchmarkFleet10k"]
	if fleet.NsPerOp != 28000000000 {
		t.Errorf("Fleet10k = %+v (GOMAXPROCS suffix not stripped?)", fleet)
	}
	sketch := got["etrain/internal/stats.BenchmarkSketchAdd"]
	if sketch.NsPerOp != 95.31 {
		t.Errorf("SketchAdd = %+v", sketch)
	}
}

func TestParseMixedGarbage(t *testing.T) {
	got, err := parseBench(strings.NewReader("no benchmarks here\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("parsed %v from garbage", got)
	}
}

func TestBenchKey(t *testing.T) {
	if k := benchKey("", "BenchmarkX-16"); k != "BenchmarkX" {
		t.Errorf("benchKey = %q", k)
	}
	if k := benchKey("p", "BenchmarkSub/case-a-8"); k != "p.BenchmarkSub/case-a" {
		t.Errorf("benchKey = %q", k)
	}
}

func TestGatePassesWithinTolerance(t *testing.T) {
	baseline := map[string]benchResult{
		"p.BenchmarkA": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
	}
	fresh := map[string]benchResult{
		// 10% worse on both gated axes: exactly at the default tolerance.
		"p.BenchmarkA": {NsPerOp: 500, BytesPerOp: 1100, AllocsPerOp: 11},
	}
	var out strings.Builder
	if !gate(&out, baseline, fresh, 0.10) {
		t.Fatalf("gate failed within tolerance:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ok   p.BenchmarkA") {
		t.Errorf("verdict line missing:\n%s", out.String())
	}
}

func TestGateFailsOnAllocRegression(t *testing.T) {
	baseline := map[string]benchResult{
		"p.BenchmarkA": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
		"p.BenchmarkB": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
	}
	fresh := map[string]benchResult{
		"p.BenchmarkA": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 12}, // 20% more allocs
		"p.BenchmarkB": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
	}
	var out strings.Builder
	if gate(&out, baseline, fresh, 0.10) {
		t.Fatalf("gate passed a 20%% alloc regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL p.BenchmarkA") {
		t.Errorf("regressed benchmark not named:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ok   p.BenchmarkB") {
		t.Errorf("healthy benchmark not passed:\n%s", out.String())
	}
}

func TestGateFailsOnBytesRegression(t *testing.T) {
	baseline := map[string]benchResult{"p.BenchmarkA": {BytesPerOp: 1000, AllocsPerOp: 10}}
	fresh := map[string]benchResult{"p.BenchmarkA": {BytesPerOp: 2000, AllocsPerOp: 10}}
	var out strings.Builder
	if gate(&out, baseline, fresh, 0.10) {
		t.Fatalf("gate passed a 2x bytes regression:\n%s", out.String())
	}
}

func TestGateIgnoresNsPerOp(t *testing.T) {
	baseline := map[string]benchResult{"p.BenchmarkA": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10}}
	fresh := map[string]benchResult{"p.BenchmarkA": {NsPerOp: 10000, BytesPerOp: 1000, AllocsPerOp: 10}}
	var out strings.Builder
	if !gate(&out, baseline, fresh, 0.10) {
		t.Fatalf("gate failed on wall-clock noise:\n%s", out.String())
	}
}

func TestGateHandlesDisjointSets(t *testing.T) {
	baseline := map[string]benchResult{"p.BenchmarkOld": {AllocsPerOp: 10}}
	fresh := map[string]benchResult{"p.BenchmarkNew": {AllocsPerOp: 10}}
	var out strings.Builder
	if gate(&out, baseline, fresh, 0.10) {
		t.Fatal("gate passed with zero matched benchmarks")
	}
	if !strings.Contains(out.String(), "SKIP p.BenchmarkOld") ||
		!strings.Contains(out.String(), "NEW  p.BenchmarkNew") {
		t.Errorf("disjoint sets not reported:\n%s", out.String())
	}
}

func TestReadBaselineShapes(t *testing.T) {
	dir := t.TempDir()
	flat := dir + "/flat.json"
	if err := os.WriteFile(flat, []byte(`{"p.BenchmarkA": {"allocs_per_op": 5}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sectioned := dir + "/sectioned.json"
	if err := os.WriteFile(sectioned,
		[]byte(`{"benchmarks": {"p.BenchmarkA": {"allocs_per_op": 5}}, "load": {"x": 1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readBaseline(flat)
	if err != nil {
		t.Fatalf("%s: %v", flat, err)
	}
	if got["p.BenchmarkA"].AllocsPerOp != 5 {
		t.Errorf("%s: %+v", flat, got)
	}
	// A file in the retired two-section shape names no benchmark, so
	// gating against it fails instead of passing on nothing.
	old, err := readBaseline(sectioned)
	if err != nil {
		t.Fatalf("%s: %v", sectioned, err)
	}
	var out strings.Builder
	if gate(&out, old, got, 0.10) {
		t.Errorf("gate passed against a two-section baseline:\n%s", out.String())
	}
}

func TestParseBenchFoldsRepeatsToMedian(t *testing.T) {
	const counted = `pkg: p
BenchmarkA-2 	 100	 300 ns/op	 60 B/op	 3 allocs/op
BenchmarkA-2 	 100	 100 ns/op	 10 B/op	 1 allocs/op
BenchmarkA-2 	 100	 900 ns/op	 20 B/op	 9 allocs/op
BenchmarkA-2 	 100	 200 ns/op	 40 B/op	 2 allocs/op
BenchmarkA-2 	 100	 500 ns/op	 30 B/op	 2 allocs/op
BenchmarkB-2 	 100	 10 ns/op	 8 B/op	 1 allocs/op
BenchmarkB-2 	 100	 20 ns/op	 16 B/op	 1 allocs/op
`
	got, err := parseBench(strings.NewReader(counted))
	if err != nil {
		t.Fatal(err)
	}
	if a := got["p.BenchmarkA"]; a != (benchResult{NsPerOp: 300, BytesPerOp: 30, AllocsPerOp: 2}) {
		t.Errorf("BenchmarkA = %+v, want each field's median of five", a)
	}
	if b := got["p.BenchmarkB"]; b != (benchResult{NsPerOp: 15, BytesPerOp: 12, AllocsPerOp: 1}) {
		t.Errorf("BenchmarkB = %+v, want each field's median of two", b)
	}
}

// TestGateFailsBothWaysOnDoctoredBaselines gates one fresh run against a
// baseline doctored 30% high and one doctored 30% low. Both fail: the low
// one as a regression, the high one as a baseline too stale to see one,
// with a request to re-record it. Improvements within twice the
// tolerance pass.
func TestGateFailsBothWaysOnDoctoredBaselines(t *testing.T) {
	fresh := map[string]benchResult{"p.BenchmarkA": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 100}}
	scaled := func(f float64) map[string]benchResult {
		return map[string]benchResult{"p.BenchmarkA": {NsPerOp: 100, BytesPerOp: 1000 * f, AllocsPerOp: 100 * f}}
	}
	for _, tc := range []struct {
		name   string
		factor float64
		pass   bool
		want   string
	}{
		{"30% high", 1.3, false, "re-record"},
		{"30% low", 0.7, false, "regressed"},
		{"20% high", 1.2, true, "ok   p.BenchmarkA"},
		{"unchanged", 1, true, "ok   p.BenchmarkA"},
	} {
		var out strings.Builder
		if got := gate(&out, scaled(tc.factor), fresh, 0.10); got != tc.pass {
			t.Errorf("%s: gate = %v, want %v:\n%s", tc.name, got, tc.pass, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.want, out.String())
		}
	}
	// A zero baseline has no floor below it.
	var out strings.Builder
	zero := map[string]benchResult{"p.BenchmarkZ": {}}
	if !gate(&out, zero, map[string]benchResult{"p.BenchmarkZ": {}}, 0.10) {
		t.Errorf("gate failed a zero baseline at zero:\n%s", out.String())
	}
}
