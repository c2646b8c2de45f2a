// Command etrain-benchjson converts `go test -bench` text output on stdin
// into a machine-readable JSON map on stdout, keyed "pkg.BenchmarkName":
//
//	go test -run '^$' -bench . -benchmem ./... | go run ./cmd/etrain-benchjson
//
// yields
//
//	{
//	  "etrain/internal/fleet.BenchmarkFleet10k": {
//	    "ns_per_op": 1234567,
//	    "bytes_per_op": 89,
//	    "allocs_per_op": 3
//	  },
//	  ...
//	}
//
// Keys are emitted sorted, so the output is diff-stable across runs of the
// same benchmark set. When a benchmark appears multiple times (e.g.
// -count 5), each field is the median of its lines, so one run disturbed
// by the host moves neither the snapshot nor the gate.
//
// With -gate FILE the tool becomes the repository's benchmark regression
// gate: instead of emitting JSON it compares the fresh run on stdin
// against the checked-in baseline FILE, a map of the shape above, and
// exits non-zero if any benchmark's allocs/op or B/op regressed beyond
// -tolerance (a fraction; default 0.10), or fell below its baseline by
// more than twice the tolerance. A baseline that far above the code can
// no longer see a regression back to it, so the gate asks for a
// re-record. Wall-clock ns/op is reported for context but never gated —
// it is too machine-dependent — while allocation counts are deterministic
// and gate exactly. Benchmarks present on only one side are reported but
// do not fail the gate, so adding a benchmark does not require touching
// the baseline in the same change.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one benchmark's parsed measurements.
type benchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

func main() {
	gatePath := flag.String("gate", "", "baseline JSON to gate the fresh run against; non-zero exit on regression")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional regression of allocs/op and B/op in -gate mode")
	flag.Parse()
	results, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "etrain-benchjson:", err)
		os.Exit(1)
	}
	if *gatePath != "" {
		baseline, err := readBaseline(*gatePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "etrain-benchjson:", err)
			os.Exit(2)
		}
		if !gate(os.Stdout, baseline, results, *tolerance) {
			os.Exit(1)
		}
		return
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "etrain-benchjson:", err)
		os.Exit(1)
	}
	if _, err := os.Stdout.Write(append(data, '\n')); err != nil {
		fmt.Fprintln(os.Stderr, "etrain-benchjson:", err)
		os.Exit(1)
	}
}

// parseBench scans go-test benchmark output: "pkg:" header lines set the
// current package, "Benchmark..." lines carry (iterations, value unit)
// measurement pairs. A benchmark's repeated lines fold into their median.
func parseBench(r io.Reader) (map[string]benchResult, error) {
	runs := map[string][]benchResult{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// name, iteration count, then (value, unit) pairs.
		if len(fields) < 4 {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue
		}
		var res benchResult
		measured := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
				measured = true
			case "B/op":
				res.BytesPerOp = v
				measured = true
			case "allocs/op":
				res.AllocsPerOp = v
				measured = true
			}
		}
		if !measured {
			continue
		}
		key := benchKey(pkg, fields[0])
		runs[key] = append(runs[key], res)
	}
	out := make(map[string]benchResult, len(runs))
	for key, rs := range runs {
		out[key] = benchResult{
			NsPerOp:     medianOf(rs, func(r benchResult) float64 { return r.NsPerOp }),
			BytesPerOp:  medianOf(rs, func(r benchResult) float64 { return r.BytesPerOp }),
			AllocsPerOp: medianOf(rs, func(r benchResult) float64 { return r.AllocsPerOp }),
		}
	}
	return out, sc.Err()
}

// medianOf returns the median of one field over a benchmark's runs: the
// middle value, or the mean of the two middle values of an even count.
func medianOf(rs []benchResult, field func(benchResult) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = field(r)
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

// readBaseline loads a checked-in benchmark snapshot, the
// {"pkg.Benchmark": {...}} map this tool writes.
func readBaseline(path string) (map[string]benchResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var flat map[string]benchResult
	if err := json.Unmarshal(raw, &flat); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return flat, nil
}

// gate compares fresh results against the baseline and writes a verdict
// line per benchmark. It returns false if any allocs/op or B/op value
// regressed beyond the tolerance fraction or improved beyond twice it.
func gate(w io.Writer, baseline, fresh map[string]benchResult, tolerance float64) bool {
	keys := make([]string, 0, len(baseline))
	for k := range baseline {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ok := true
	matched := 0
	for _, k := range keys {
		base := baseline[k]
		got, present := fresh[k]
		if !present {
			fmt.Fprintf(w, "SKIP %s: not in this run\n", k)
			continue
		}
		matched++
		var why []string
		for _, f := range [...]struct {
			name      string
			base, got float64
		}{{"allocs/op", base.AllocsPerOp, got.AllocsPerOp}, {"B/op", base.BytesPerOp, got.BytesPerOp}} {
			switch {
			case f.got > f.base*(1+tolerance):
				why = append(why, fmt.Sprintf("%s regressed more than %.0f%%", f.name, 100*tolerance))
			case f.got < f.base*(1-2*tolerance):
				why = append(why, fmt.Sprintf("%s fell more than %.0f%% below the baseline, re-record it (make bench-json)", f.name, 200*tolerance))
			}
		}
		verdict := "ok  "
		if len(why) > 0 {
			verdict = "FAIL"
			ok = false
		}
		fmt.Fprintf(w, "%s %s: allocs/op %.0f -> %.0f, B/op %.0f -> %.0f, ns/op %.0f -> %.0f (not gated)\n",
			verdict, k, base.AllocsPerOp, got.AllocsPerOp,
			base.BytesPerOp, got.BytesPerOp, base.NsPerOp, got.NsPerOp)
		for _, reason := range why {
			fmt.Fprintf(w, "     %s: %s\n", k, reason)
		}
	}
	news := make([]string, 0, len(fresh))
	for k := range fresh {
		if _, present := baseline[k]; !present {
			news = append(news, k)
		}
	}
	sort.Strings(news)
	for _, k := range news {
		fmt.Fprintf(w, "NEW  %s: no baseline; regenerate the snapshot to start gating it\n", k)
	}
	if matched == 0 {
		fmt.Fprintln(w, "FAIL gate: no benchmark in this run matches the baseline")
		return false
	}
	return ok
}

// benchKey joins the package path and the benchmark name, dropping the
// -GOMAXPROCS suffix go test appends to the name.
func benchKey(pkg, name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	if pkg == "" {
		return name
	}
	return pkg + "." + name
}
