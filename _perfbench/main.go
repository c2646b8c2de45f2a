// Command perfbench is the repository benchmark. It runs one workload per
// invocation and prints, as its last line, one JSON object with the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run):
//
//	bash _perfbench/run.sh --workload fleet-3g --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	fleet-3g           fleet.Run over the default mix, legacy 3G RRC model
//	fleet-drx-diurnal  the same population under the week profile and LTE DRX
//	serve-cluster3     controller + 3 server shards on 127.0.0.1, sessions
//	                   routed by cluster.Router and replayed by client.Run
//
// End-to-end metrics. A device is one with/without-eTrain pair on the
// fleets and one session on serve:
//
//	devices_per_s           fleets: median devices/s over heavy reports (1024
//	                        devices on nproc workers); serve: median
//	                        sessions/s over closed-loop windows with nproc
//	                        sessions in flight
//	cpu_us_per_device       process CPU time per device in the heavy phase
//	alloc_bytes_per_device  heap bytes allocated per device, all phases
//	max_rss_mb              peak resident set size
//	setup_s                 median of three set-ups (fleet: configs and a
//	                        256-device warm-up report; serve: session pool,
//	                        reference replays, cluster start)
//	p50_ms.light            fleets: median latency of a one-shard report (256
//	                        devices, one worker busy); serve: median session
//	                        latency with one session in flight
//	p50_ms.heavy            fleets: median heavy-report latency; serve:
//	                        median session latency with nproc in flight
//
// Latency tails are not gated: on a shared host they move 2-3x between
// runs. The traced serve run reports the seeded open-loop tails, generator
// lag and slot wait as per-layer figures instead.
//
// The seed only generates inputs; the program under test receives the
// generated devices and arrival schedules. Every run checks the program's
// outputs, counts failed devices in the result's "failed" field and exits
// non-zero when a check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric with its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd lists the untraced run's metrics. Every workload reports every
// one; the package comment says what each means per workload.
var endToEnd = []metricDef{
	{"devices_per_s", "1/s"},
	{"cpu_us_per_device", "us"},
	{"alloc_bytes_per_device", "B"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
	{"p50_ms.light", "ms"},
	{"p50_ms.heavy", "ms"},
}

// perLayer lists the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"synth.ns_per_device", "ns"},
	{"synth.allocs_per_device", "count"},
	{"bandwidth.ns_per_device", "ns"},
	{"core.schedule_ns_per_slot", "ns"},
	{"core.slots_per_device", "count"},
	{"core.empty_slot_frac", "ratio"},
	{"baseline.schedule_ns_per_slot", "ns"},
	{"sim.step_self_ns_per_slot", "ns"},
	{"sim.tx_per_device", "count"},
	{"radio.account_ns_per_device", "ns"},
	{"stats.fold_ns_per_device", "ns"},
	{"fleet.untraced_ns_per_device", "ns"},
	{"fleet.traced_ns_per_device", "ns"},
	{"fleet.residual_ns_per_device", "ns"},
	{"wire.encode_ns_per_frame", "ns"},
	{"wire.decode_ns_per_frame", "ns"},
	{"wire.allocs_per_frame", "count"},
	{"wire.frames_per_session", "count"},
	{"server.new_replayer_ns", "ns"},
	{"server.apply_ns_per_frame", "ns"},
	{"server.decisions_per_session", "count"},
	{"server.refused", "count"},
	{"server.shed", "count"},
	{"server.parked", "count"},
	{"client.reconnects", "count"},
	{"client.resumes", "count"},
	{"client.replays", "count"},
	{"client.degraded", "count"},
	{"cluster.route_ns_per_session", "ns"},
	{"cluster.lookup_ns", "ns"},
	{"cluster.fold_ns_per_session", "ns"},
	{"cluster.reroutes", "count"},
	{"serve.untraced_ns_per_session", "ns"},
	{"serve.traced_ns_per_session", "ns"},
	{"serve.residual_ns_per_session", "ns"},
	{"serve.cpu_ns_per_session", "ns"},
	{"serve.open_p50_ms.light", "ms"},
	{"serve.open_p99_ms.light", "ms"},
	{"serve.open_p50_ms.heavy", "ms"},
	{"serve.open_p99_ms.heavy", "ms"},
	{"gen.lag_ms_p99", "ms"},
	{"gen.slot_wait_ms_p99", "ms"},
	{"gc.cycles_per_kdevice", "count"},
	{"trace.overhead_frac", "ratio"},
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// spansDir receives the traced run's span file; empty skips writing.
	spansDir string
	size     sizes
}

// sizes scales every workload; the smoke test shrinks them.
type sizes struct {
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// heavyConfigs and lightConfigs are how many distinct populations the
	// heavy and light fleet reports cycle over. Light reports are small, so
	// more of them keep one seed's draw from setting the median.
	heavyConfigs int
	lightConfigs int
	// heavyDevices is the population of one heavy fleet report (spread
	// over nproc workers); lightDevices that of a one-shard light report.
	heavyDevices int
	lightDevices int
	// warmDevices is the warm-up population run during fleet set-up.
	warmDevices int
	// allocSample is how many devices the synthesis allocation count uses.
	allocSample int
	// pool is how many pre-synthesized devices serve sessions cycle over.
	pool int
	// lightRate and heavyRate are the fixed open-loop offered loads in
	// sessions per second.
	lightRate float64
	heavyRate float64
}

var fullSizes = sizes{
	setups:       3,
	heavyConfigs: 4,
	lightConfigs: 16,
	heavyDevices: 1024,
	lightDevices: 256,
	warmDevices:  256,
	allocSample:  256,
	pool:         1024,
	lightRate:    400,
	heavyRate:    800,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one invocation's outcome.
type run struct {
	opts      options
	out       io.Writer
	attempted int64
	failed    int64
	broken    []string // failed checks that are not per-device
	values    map[string]float64
}

func newRun(opts options, out io.Writer) *run {
	return &run{opts: opts, out: out, values: map[string]float64{}}
}

// set records a metric value by name.
func (r *run) set(name string, v float64) { r.values[name] = v }

// fail records a failed check that invalidates the whole run.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.broken = append(r.broken, msg)
	fmt.Fprintln(r.out, "CHECK FAILED:", msg)
}

// devicesFailed counts n failed devices or sessions, printing the first
// few reasons.
func (r *run) devicesFailed(n int64, format string, args ...any) {
	if r.failed < 5 {
		fmt.Fprintf(r.out, "DEVICES FAILED (%d): "+format+"\n", append([]any{n}, args...)...)
	}
	r.failed += n
}

// result renders the metrics the run's mode reports, every one present.
func (r *run) result() result {
	defs := endToEnd
	if r.opts.trace {
		defs = perLayer
	}
	res := result{
		Correct:   len(r.broken) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: r.values[d.name], Unit: d.unit}
	}
	return res
}

// printMetrics writes the reported metrics as an aligned text block.
func (r *run) printMetrics(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(r.out, "\n%-34s %16s  %s\n", "metric", "value", "unit")
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(r.out, "%-34s %16.4f  %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(r.out, "attempted=%d failed=%d failed_ratio=%.6f correct=%v\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), res.Correct)
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := execute(opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "fleet-3g, fleet-drx-diurnal or serve-cluster3")
	seed := fs.Int64("seed", 1, "input-generation seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if *seconds <= 0 {
		return options{}, fmt.Errorf("non-positive --seconds %v", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	return options{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		spansDir: os.Getenv("PERFBENCH_OUT"),
		size:     fullSizes,
	}, nil
}

// execute runs one workload and returns its result.
func execute(opts options, out io.Writer) (result, error) {
	r := newRun(opts, out)
	printHeader(out, opts)
	var err error
	switch opts.workload {
	case "fleet-3g", "fleet-drx-diurnal":
		err = runFleet(r)
	case "serve-cluster3":
		err = runServe(r)
	default:
		return result{}, fmt.Errorf("unknown --workload %q", opts.workload)
	}
	if err != nil {
		return result{}, err
	}
	res := r.result()
	r.printMetrics(res)
	return res, nil
}

// printHeader states the machine and toolchain the figures come from.
func printHeader(w io.Writer, opts options) {
	mode := "untraced (end-to-end metrics)"
	if opts.trace {
		mode = "traced (per-layer metrics)"
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g mode=%s\n", opts.workload, opts.seed, opts.seconds, mode)
	fmt.Fprintf(w, "go=%s goos=%s goarch=%s cpu=%q gomaxprocs=%d nproc=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	if strings.HasPrefix(opts.workload, "serve") {
		fmt.Fprintln(w, "serve traffic: TCP over the host loopback interface (127.0.0.1), one process")
	}
}

// cpuModel reads the processor name from /proc/cpuinfo, if present.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// nproc is the worker and in-flight bound of every workload.
func nproc() int { return runtime.NumCPU() }

// mix64 derives independent input seeds from the benchmark seed.
func mix64(seed int64, parts ...uint64) int64 {
	z := uint64(seed)
	for _, p := range parts {
		z ^= p + 0x9e3779b97f4a7c15 + (z << 6) + (z >> 2)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z >> 1)
}

// quantile returns the nearest-rank p-quantile (0..1) of xs, sorting it.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSnapshot reads the allocation counters.
func memSnapshot() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
