// Command etrain-load replays a synthesized device fleet against an
// etraind server over N concurrent connections and reports throughput and
// session-latency percentiles.
//
// Usage:
//
//	go run ./cmd/etrain-load -devices 1000 -conns 16            # in-process loopback
//	go run ./cmd/etrain-load -addr 127.0.0.1:4810 -devices 1000 # against etraind
//	go run ./cmd/etrain-load -devices 500 -faults 0.1           # chaos soak
//
// With an empty -addr the generator hosts the server itself and drives it
// over in-process net.Pipe loopback — the same path the CI soak takes —
// so the service layer can be measured without a network.
//
// Sessions run through the self-healing internal/client, so a dropped
// connection reconnects and resumes rather than failing the device.
// -faults injects deterministic transport chaos (drops, resets, mid-frame
// truncation, refused dials) via internal/faultnet, seeded by -fault-seed:
// the summary then also reports how much healing — reconnects, resumes,
// full replays, degraded local scheduling — the fleet needed. -json
// writes the whole report to a file for etrain-benchjson -load to fold
// into BENCH_server.json. -cpuprofile and -memprofile write runtime/pprof
// profiles on every exit, Ctrl-C included.
//
// With -cluster ADDR the generator runs against a sharded etraind
// cluster instead of one server (DESIGN.md §13): it subscribes to the
// controller's route table at ADDR, routes every device to its owning
// shard through the consistent-hash ring, and follows pushed table
// updates — a shard killed mid-run strands its clients for exactly as
// long as rerouting takes, and the report's failover-recovery
// percentiles measure that window (first failed dial to the next
// successful one). The summary then also prints the fleet-wide merged
// stats block ("fleet ..." lines, folded in device-index order), which
// is byte-comparable against a single-process run of the same fleet —
// the cluster CI job diffs exactly that.
//
// Devices are synthesized exactly like etrain-fleet's (identity-derived
// from -seed), so a load run replays the same population a fleet
// simulation reports on. This command is a wall-clock boundary of the
// service subsystem: session latency is measured here, never inside
// internal/server.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"etrain/internal/client"
	"etrain/internal/cluster"
	"etrain/internal/diurnal"
	"etrain/internal/faultnet"
	"etrain/internal/fleet"
	"etrain/internal/parallel"
	"etrain/internal/profiling"
	"etrain/internal/server"
	"etrain/internal/stats"
	"etrain/internal/wire"
	"etrain/internal/workload"
)

func main() {
	addr := flag.String("addr", "", "etraind address (empty: in-process loopback server)")
	clusterAddr := flag.String("cluster", "", "cluster controller control address: route devices by the live route table")
	devices := flag.Int("devices", 1000, "devices to replay")
	conns := flag.Int("conns", 16, "concurrent connections (negative: one per CPU)")
	seed := flag.Int64("seed", 42, "fleet seed; device i derives from (seed, i)")
	theta := flag.Float64("theta", 4.0, "eTrain cost bound Θ")
	k := flag.Int("k", fleet.DefaultK, "per-heartbeat batch bound k")
	horizon := flag.Duration("horizon", 10*time.Minute, "per-device simulated span")
	alpha := flag.Float64("alpha", 0.01, "latency-sketch relative accuracy in [0.001, 1)")
	faults := flag.Float64("faults", 0, "transport fault intensity in [0, 1): per-op drop f/2, reset f/4, truncate f/4, dial refusal f/4")
	faultSeed := flag.Int64("fault-seed", 1, "seed rooting the deterministic fault schedule")
	jsonPath := flag.String("json", "", "also write the report as JSON to this file")
	quiet := flag.Bool("quiet", false, "suppress the per-run header")
	diurnalFlag := flag.String("diurnal", "", "diurnal activity profile shaping device replays (flat, week, weekday, weekend; empty: none)")
	timeScale := flag.Float64("time-scale", 0, "diurnal clock compression (0: profile default; requires -diurnal)")
	admissionRate := flag.Float64("admission-rate", 0, "loopback server hello admission rate per second (0: admission off; loopback mode only)")
	admissionBurst := flag.Float64("admission-burst", 0, "loopback server admission burst (with -admission-rate)")
	retryBudget := flag.Int("retry-budget", 0, "per-session busy-retry budget (0: client default)")
	cpuProfile := flag.String("cpuprofile", "", "write a runtime/pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a runtime/pprof allocation profile of the run to this file at exit")
	flag.Parse()

	prof, err := parseDiurnal(*diurnalFlag, *timeScale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "etrain-load:", err)
		os.Exit(2)
	}
	profiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "etrain-load:", err)
		os.Exit(2)
	}
	// Ctrl-C and SIGTERM would end the process before the profiles are
	// written: write them, then exit as an interrupted command does.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		exit(profiles, 130)
	}()
	err = run(config{
		addr:      *addr,
		cluster:   *clusterAddr,
		devices:   *devices,
		conns:     *conns,
		seed:      *seed,
		theta:     *theta,
		k:         *k,
		horizon:   *horizon,
		alpha:     *alpha,
		faults:    *faults,
		faultSeed: *faultSeed,
		jsonPath:  *jsonPath,
		quiet:     *quiet,
		diurnal:   prof,

		admissionRate:  *admissionRate,
		admissionBurst: *admissionBurst,
		retryBudget:    *retryBudget,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "etrain-load:", err)
		exit(profiles, 1)
	}
	exit(profiles, 0)
}

// exit writes the profiles and ends the process with code, or with 1 if a
// profile could not be written.
func exit(profiles *profiling.Session, code int) {
	if err := profiles.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "etrain-load:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// config carries the parsed flags.
type config struct {
	addr      string
	cluster   string
	devices   int
	conns     int
	seed      int64
	theta     float64
	k         int
	horizon   time.Duration
	alpha     float64
	faults    float64
	faultSeed int64
	jsonPath  string
	quiet     bool
	diurnal   *diurnal.Profile

	admissionRate  float64
	admissionBurst float64
	retryBudget    int
}

// parseDiurnal resolves the -diurnal preset with the -time-scale
// override applied.
func parseDiurnal(name string, timeScale float64) (*diurnal.Profile, error) {
	if name == "" {
		if timeScale != 0 {
			return nil, fmt.Errorf("-time-scale requires -diurnal")
		}
		return nil, nil
	}
	prof, err := diurnal.ByName(name)
	if err != nil {
		return nil, err
	}
	if timeScale != 0 {
		prof.TimeScale = timeScale
	}
	return prof, prof.Validate()
}

// report is the machine-readable run summary -json emits; field names are
// the BENCH_server.json vocabulary.
type report struct {
	Devices    int     `json:"devices"`
	Conns      int     `json:"conns"`
	Faults     float64 `json:"faults"`
	FaultSeed  int64   `json:"fault_seed,omitempty"`
	SessionsOK int     `json:"sessions_ok"`
	Failed     int     `json:"sessions_failed"`
	WallMs     float64 `json:"wall_ms"`
	SessionsPS float64 `json:"sessions_per_sec"`

	LatencyMeanMs float64 `json:"latency_mean_ms"`
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP90Ms  float64 `json:"latency_p90_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`

	Reconnects       int `json:"reconnects"`
	Resumes          int `json:"resumes"`
	Replays          int `json:"replays"`
	DegradedSessions int `json:"degraded_sessions"`
	// DegradedUnreconciled counts degraded sessions whose final frames
	// were produced locally and never confirmed by a server. Counting
	// only DegradedSessions understates chaos damage: a session that
	// degraded for one stint and then reconciled is a different outcome
	// from one the server never saw finish.
	DegradedUnreconciled int     `json:"degraded_unreconciled"`
	DegradedEvents       int     `json:"degraded_events"`
	DegradedMs           float64 `json:"degraded_ms"`

	// The overload ledger: how often servers pushed back with Busy, how
	// many sessions ran their retry budget dry, and the summed
	// seed-jittered busy wait — the fleet's herd-recovery latency
	// contribution.
	BusyResponses        int     `json:"busy_responses,omitempty"`
	RetryBudgetExhausted int     `json:"retry_budget_exhausted,omitempty"`
	BusyWaitMs           float64 `json:"busy_wait_ms,omitempty"`

	InjectedDrops       uint64 `json:"injected_drops,omitempty"`
	InjectedResets      uint64 `json:"injected_resets,omitempty"`
	InjectedTruncations uint64 `json:"injected_truncations,omitempty"`
	InjectedDialFails   uint64 `json:"injected_dial_fails,omitempty"`

	ServerParked    uint64 `json:"server_parked,omitempty"`
	ServerResumed   uint64 `json:"server_resumed,omitempty"`
	ServerFramesIn  uint64 `json:"server_frames_in,omitempty"`
	ServerFramesOut uint64 `json:"server_frames_out,omitempty"`
	ServerDecisions uint64 `json:"server_decisions,omitempty"`
	ServerRefused   uint64 `json:"server_refused,omitempty"`
	ServerShed      uint64 `json:"server_shed,omitempty"`
	ServerBusySent  uint64 `json:"server_busy_sent,omitempty"`

	// Cluster mode only: how often devices were rerouted to a new owner,
	// how many dial outages they rode out, and how long rerouting took —
	// the failover-recovery window from a device's first failed dial to
	// its next successful one.
	Cluster        string  `json:"cluster,omitempty"`
	Reroutes       int     `json:"reroutes,omitempty"`
	Recoveries     int     `json:"recoveries,omitempty"`
	RecoveryP50Ms  float64 `json:"recovery_p50_ms,omitempty"`
	RecoveryP99Ms  float64 `json:"recovery_p99_ms,omitempty"`
	RecoveryMaxMs  float64 `json:"recovery_max_ms,omitempty"`
	RecoveryMeanMs float64 `json:"recovery_mean_ms,omitempty"`

	// Fleet is the merged per-device stats fold (device-index order, so
	// it is a pure function of the device set regardless of shard layout).
	Fleet *cluster.FleetReport `json:"fleet,omitempty"`
}

func run(cfg config) error {
	if cfg.faults < 0 || cfg.faults >= 1 {
		return fmt.Errorf("faults %v outside [0, 1)", cfg.faults)
	}
	if cfg.cluster != "" && cfg.addr != "" {
		return fmt.Errorf("-cluster and -addr are mutually exclusive: the route table picks the address per device")
	}
	if cfg.cluster != "" && cfg.faults > 0 {
		return fmt.Errorf("-cluster does not compose with -faults: cluster chaos is injected by killing shards (see the cluster CI job), not by the transport injector")
	}
	if cfg.admissionRate > 0 && (cfg.addr != "" || cfg.cluster != "") {
		return fmt.Errorf("-admission-rate shapes the in-process loopback server only; configure remote admission on etraind itself")
	}
	pop, err := workload.NewPopulation(workload.DefaultMix())
	if err != nil {
		return err
	}
	sketch, err := stats.NewSketch(cfg.alpha)
	if err != nil {
		return err
	}
	inj, err := faultnet.New(faultnet.Config{
		Seed:        cfg.faultSeed,
		Drop:        cfg.faults / 2,
		Reset:       cfg.faults / 4,
		Truncate:    cfg.faults / 4,
		ConnectFail: cfg.faults / 4,
		MaxChunk:    chunkFor(cfg.faults),
	})
	if err != nil {
		return err
	}

	var srv *server.Server
	var rt *cluster.Router
	rawDial := func() (net.Conn, error) { return net.Dial("tcp", cfg.addr) }
	switch {
	case cfg.cluster != "":
		rt, err = cluster.NewRouter(cluster.RouterConfig{
			DialControl: func() (net.Conn, error) { return net.Dial("tcp", cfg.cluster) },
			DialShard:   func(a string) (net.Conn, error) { return net.Dial("tcp", a) },
			//lint:ignore notime load-harness boundary: real redial pacing against a restarting controller
			Sleep: time.Sleep,
		})
		if err != nil {
			return fmt.Errorf("cluster %s: %w", cfg.cluster, err)
		}
		defer rt.Close()
	case cfg.addr == "":
		var admission server.Admission
		if cfg.admissionRate > 0 {
			admission = server.NewTokenBucketAdmission(server.TokenBucketConfig{
				Rate:  cfg.admissionRate,
				Burst: cfg.admissionBurst,
				//lint:ignore notime load-harness boundary: the overload soak refills the admission bucket in real time, like etraind would
				Clock: time.Now,
			})
		}
		srv = server.New(server.Config{Admission: admission})
		rawDial = func() (net.Conn, error) {
			clientSide, serverSide := net.Pipe()
			go srv.ServeConn(serverSide)
			return clientSide, nil
		}
	}
	if !cfg.quiet {
		target := cfg.addr
		if cfg.cluster != "" {
			tbl := rt.Table()
			target = fmt.Sprintf("%d-shard cluster at %s (route epoch %d)", len(tbl.Shards), cfg.cluster, tbl.Epoch)
		} else if target == "" {
			target = "in-process loopback"
		}
		chaos := ""
		if cfg.faults > 0 {
			chaos = fmt.Sprintf(" with fault intensity %.2g (seed %d)", cfg.faults, cfg.faultSeed)
		}
		fmt.Fprintf(os.Stderr, "etrain-load: %d devices over %d connections against %s%s\n",
			cfg.devices, parallel.Workers(cfg.conns), target, chaos)
	}

	var (
		mu       sync.Mutex
		latency  stats.Moments
		recovery stats.Moments
		rep      report
		firstErr error
	)
	recSketch, err := stats.NewSketch(cfg.alpha)
	if err != nil {
		return err
	}
	snaps := make([]wire.StatsSnapshot, cfg.devices)
	rep.Devices, rep.Conns, rep.Faults = cfg.devices, cfg.conns, cfg.faults
	if cfg.faults > 0 {
		rep.FaultSeed = cfg.faultSeed
	}
	//lint:ignore notime load-harness boundary: throughput and latency are wall-clock measurements of the service; the sessions themselves are deterministic
	started := time.Now()
	err = parallel.ForEach(parallel.NewLimit(cfg.conns), cfg.devices, func(i int) error {
		dev, err := fleet.SynthesizeDeviceOpts(cfg.seed, pop, i, cfg.horizon, fleet.DeviceOptions{Diurnal: cfg.diurnal})
		if err != nil {
			return err
		}
		sess, err := server.SessionFromDevice(dev, cfg.theta, cfg.k)
		if err != nil {
			return err
		}
		ccfg := client.Config{
			Seed:        cfg.seed + int64(i),
			RetryBudget: cfg.retryBudget,
			//lint:ignore notime load-harness boundary: real reconnect backoff against a real transport
			Sleep: time.Sleep,
			//lint:ignore notime load-harness boundary: degraded-mode wall time is a harness measurement
			Clock:       time.Now,
			BaseBackoff: 5 * time.Millisecond,
			MaxBackoff:  250 * time.Millisecond,
		}
		if rt != nil {
			ccfg.Route = timedRoute(rt.Dialer(uint64(i)), func(moved bool, outage time.Duration) {
				mu.Lock()
				defer mu.Unlock()
				if moved {
					rep.Reroutes++
				}
				if outage > 0 {
					rep.Recoveries++
					ms := float64(outage) / float64(time.Millisecond)
					recovery.Add(ms)
					recSketch.Add(ms)
				}
			})
		} else {
			ccfg.Dial = inj.Dialer(rawDial, uint64(i))
		}
		//lint:ignore notime load-harness boundary: session latency is measured at the client
		t0 := time.Now()
		out, err := client.Run(ccfg, sess)
		//lint:ignore notime load-harness boundary: session latency is measured at the client
		elapsed := time.Since(t0)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			rep.Failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("device %d: %w", i, err)
			}
			return nil // keep loading; failures are reported in the summary
		}
		ms := float64(elapsed) / float64(time.Millisecond)
		latency.Add(ms)
		sketch.Add(ms)
		rep.absorb(out)
		snaps[i] = out.Stats
		return nil
	})
	//lint:ignore notime load-harness boundary: throughput and latency are wall-clock measurements of the service; the sessions themselves are deterministic
	wall := time.Since(started)
	if err != nil {
		return err
	}

	rep.SessionsOK = cfg.devices - rep.Failed
	rep.WallMs = float64(wall) / float64(time.Millisecond)
	if wall > 0 {
		rep.SessionsPS = float64(rep.SessionsOK) / wall.Seconds()
	}
	if latency.N() > 0 {
		rep.LatencyMeanMs = latency.Mean()
		rep.LatencyP50Ms = quantile(sketch, 50)
		rep.LatencyP90Ms = quantile(sketch, 90)
		rep.LatencyP99Ms = quantile(sketch, 99)
	}
	fs := inj.Stats()
	rep.InjectedDrops, rep.InjectedResets = fs.Drops, fs.Resets
	rep.InjectedTruncations, rep.InjectedDialFails = fs.Truncations, fs.DialFails
	if srv != nil {
		s := srv.Stats()
		rep.ServerParked, rep.ServerResumed = s.Parked, s.Resumed
		rep.ServerFramesIn, rep.ServerFramesOut = s.FramesIn, s.FramesOut
		rep.ServerDecisions = s.Decisions
		rep.ServerRefused, rep.ServerShed, rep.ServerBusySent = s.Refused, s.Shed, s.BusySent
	}
	if rt != nil {
		rep.Cluster = cfg.cluster
		if recovery.N() > 0 {
			rep.RecoveryMeanMs = recovery.Mean()
			rep.RecoveryMaxMs = recovery.Max()
			rep.RecoveryP50Ms = quantile(recSketch, 50)
			rep.RecoveryP99Ms = quantile(recSketch, 99)
		}
	}
	// The fleet block folds per-device snapshots in device-index order, so
	// its bits depend only on the device set — a cluster run and a
	// single-process run of the same fleet render the same block. A failed
	// session has no snapshot, so the fold is only meaningful when every
	// session completed.
	if rep.Failed == 0 {
		flt, err := cluster.NewFleetStats(0)
		if err != nil {
			return err
		}
		for i := range snaps {
			flt.Add(snaps[i])
		}
		fr := flt.Report()
		rep.Fleet = &fr
	}

	fmt.Printf("sessions     %d ok, %d failed\n", rep.SessionsOK, rep.Failed)
	fmt.Printf("wall         %s\n", wall.Round(time.Millisecond))
	if wall > 0 {
		fmt.Printf("throughput   %.1f sessions/s\n", rep.SessionsPS)
	}
	if latency.N() > 0 {
		fmt.Printf("latency ms   mean %.2f  min %.2f  max %.2f\n", latency.Mean(), latency.Min(), latency.Max())
		fmt.Printf("percentiles  p50 %.2f  p90 %.2f  p99 %.2f\n", rep.LatencyP50Ms, rep.LatencyP90Ms, rep.LatencyP99Ms)
	}
	if cfg.faults > 0 {
		fmt.Printf("chaos        drops %d  resets %d  truncations %d  refused dials %d\n",
			fs.Drops, fs.Resets, fs.Truncations, fs.DialFails)
		fmt.Printf("healing      reconnects %d  resumes %d  replays %d  degraded %d sessions (%d unreconciled) / %d events / %.0f ms\n",
			rep.Reconnects, rep.Resumes, rep.Replays, rep.DegradedSessions, rep.DegradedUnreconciled, rep.DegradedEvents, rep.DegradedMs)
	}
	if srv != nil {
		s := srv.Stats()
		fmt.Printf("server       frames in/out %d/%d  decisions %d  parked %d  resumed %d\n",
			s.FramesIn, s.FramesOut, s.Decisions, s.Parked, s.Resumed)
	}
	if rep.BusyResponses+rep.RetryBudgetExhausted > 0 || rep.ServerRefused+rep.ServerShed+rep.ServerBusySent > 0 {
		fmt.Printf("overload     busy %d  budget exhaustions %d  busy wait %.0f ms  server refused %d  shed %d  busy-sent %d\n",
			rep.BusyResponses, rep.RetryBudgetExhausted, rep.BusyWaitMs,
			rep.ServerRefused, rep.ServerShed, rep.ServerBusySent)
	}
	if rt != nil {
		fmt.Printf("cluster      reroutes %d  recoveries %d\n", rep.Reroutes, rep.Recoveries)
		if rep.Recoveries > 0 {
			fmt.Printf("recovery ms  mean %.2f  max %.2f  p50 %.2f  p99 %.2f\n",
				rep.RecoveryMeanMs, rep.RecoveryMaxMs, rep.RecoveryP50Ms, rep.RecoveryP99Ms)
		}
	}
	if rep.Fleet != nil {
		if err := rep.Fleet.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if cfg.jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "etrain-load: first failure:", firstErr)
	}
	if rep.Failed > 0 {
		return fmt.Errorf("%d of %d sessions failed", rep.Failed, cfg.devices)
	}
	return nil
}

// absorb folds one successful session's healing counters into the
// report. Callers hold the report lock.
func (r *report) absorb(out *client.Outcome) {
	r.Reconnects += out.Reconnects
	r.Resumes += out.Resumes
	r.Replays += out.Replays
	r.DegradedEvents += out.DegradedEvents
	r.DegradedMs += float64(out.DegradedTime) / float64(time.Millisecond)
	if out.Degraded {
		r.DegradedSessions++
	}
	if out.CompletedLocally {
		r.DegradedUnreconciled++
	}
	r.BusyResponses += out.BusyResponses
	r.RetryBudgetExhausted += out.BudgetExhausted
	r.BusyWaitMs += float64(out.BusyWait) / float64(time.Millisecond)
}

// timedRoute wraps one device's route dialer with outage timing: the
// failover-recovery window runs from the device's first failed dial to
// its next successful one. note fires on every successful dial with the
// move flag and the closed outage window (zero when the dial chain never
// broke). Each device's dialer is driven by that device's client
// goroutine alone, so the closure state needs no lock; note does its own
// locking.
func timedRoute(route func() (net.Conn, bool, error), note func(moved bool, outage time.Duration)) func() (net.Conn, bool, error) {
	var outageStart time.Time
	return func() (net.Conn, bool, error) {
		conn, moved, err := route()
		if err != nil {
			if outageStart.IsZero() {
				//lint:ignore notime load-harness boundary: failover recovery is a wall-clock measurement
				outageStart = time.Now()
			}
			return nil, false, err
		}
		var outage time.Duration
		if !outageStart.IsZero() {
			//lint:ignore notime load-harness boundary: failover recovery is a wall-clock measurement
			outage = time.Since(outageStart)
			outageStart = time.Time{}
		}
		note(moved, outage)
		return conn, moved, nil
	}
}

// chunkFor fragments traffic only when chaos is on: short writes are part
// of the fault model, not the clean measurement path.
func chunkFor(faults float64) int {
	if faults > 0 {
		return 16
	}
	return 0
}

// quantile reads one sketch percentile (0–100), mapping the empty-sketch
// error to 0.
func quantile(s *stats.Sketch, p float64) float64 {
	v, err := s.Quantile(p)
	if err != nil {
		return 0
	}
	return v
}
