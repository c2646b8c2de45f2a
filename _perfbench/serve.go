package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"etrain/internal/client"
	"etrain/internal/cluster"
	"etrain/internal/fleet"
	"etrain/internal/radio"
	"etrain/internal/server"
	"etrain/internal/wire"
	"etrain/internal/workload"
)

// Serve workload parameters.
const (
	serveHorizon = 2 * time.Minute
	serveShards  = 3
	// capacityWindows is how many closed-loop windows the sessions/s
	// figure is the median over.
	capacityWindows = 8
	// beatEvery paces the shard agents; beats are control-plane noise here.
	beatEvery = 250 * time.Millisecond
)

// expected is a pool device's reference outcome from an in-process
// server.Replayer.
type expected struct {
	decisions []wire.Decision
	stats     wire.StatsSnapshot
	framesOut []wire.Message
}

// shardProc is one in-process shard: session server, listener, agent.
type shardProc struct {
	srv       *server.Server
	l         net.Listener
	cancel    context.CancelFunc
	agentDone chan struct{}
}

// rig is the in-process cluster: a controller, three shards and the
// client-side router, all on 127.0.0.1 TCP.
type rig struct {
	ctrl   *cluster.Controller
	shards []*shardProc
	router *cluster.Router
	serves sync.WaitGroup
}

func tcpDial(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// startRig boots the controller and shards and waits until the router
// sees all three shards.
func startRig(seed int64) (*rig, error) {
	rg := &rig{ctrl: cluster.NewController(cluster.ControllerConfig{RingSeed: seed})}
	cl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rg.serves.Add(1)
	go func() {
		defer rg.serves.Done()
		_ = rg.ctrl.Serve(cl) // returns ErrControllerClosed at shutdown
	}()
	ctrlAddr := cl.Addr().String()
	for id := uint64(1); id <= serveShards; id++ {
		srv := server.New(server.Config{})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rg.close()
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		sp := &shardProc{srv: srv, l: l, cancel: cancel, agentDone: make(chan struct{})}
		rg.shards = append(rg.shards, sp)
		rg.serves.Add(1)
		go func() {
			defer rg.serves.Done()
			_ = srv.Serve(l) // returns ErrServerClosed at shutdown
		}()
		go func(id uint64) {
			defer close(sp.agentDone)
			_ = cluster.RunAgent(ctx, cluster.AgentConfig{
				ShardID:   id,
				Advertise: l.Addr().String(),
				Dial:      tcpDial(ctrlAddr),
				Stats:     func() wire.ShardStats { return cluster.CountersToShardStats(id, srv.Stats()) },
				BeatEvery: beatEvery,
				Sleep:     ctxSleep(ctx),
			})
		}(id)
	}
	rg.router, err = cluster.NewRouter(cluster.RouterConfig{
		DialControl: tcpDial(ctrlAddr),
		DialShard:   dialSession,
	})
	if err != nil {
		rg.close()
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(rg.router.Table().Shards) < serveShards {
		if time.Now().After(deadline) {
			rg.close()
			return nil, fmt.Errorf("cluster did not form: %+v", rg.router.Table())
		}
		time.Sleep(time.Millisecond)
	}
	return rg, nil
}

// dialSession opens a session connection whose close resets it instead
// of leaving a TIME_WAIT socket: tens of thousands of sessions a run would
// otherwise fill the kernel's TIME_WAIT table and slow every later connect.
func dialSession(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := conn.(*net.TCPConn).SetLinger(0); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// ctxSleep returns a sleeper that wakes early when ctx is done.
func ctxSleep(ctx context.Context) func(time.Duration) {
	return func(d time.Duration) {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
		case <-t.C:
		}
	}
}

// close stops the router, agents, shards and controller and waits for
// every goroutine the rig started.
func (rg *rig) close() {
	if rg.router != nil {
		rg.router.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, sp := range rg.shards {
		sp.cancel()
		<-sp.agentDone
		_ = sp.srv.Shutdown(ctx)
	}
	_ = rg.ctrl.Shutdown(ctx)
	rg.serves.Wait()
}

// counters sums the shards' server counters and fails the run unless
// every refusal, shed, park and error count is 0, as on a clean network.
func (rg *rig) counters(r *run) server.Counters {
	var sum server.Counters
	for _, sp := range rg.shards {
		c := sp.srv.Stats()
		sum.Refused += c.Refused
		sum.Shed += c.Shed
		sum.Parked += c.Parked
		sum.Errored += c.Errored
		sum.Rejected += c.Rejected
	}
	if sum.Refused+sum.Shed+sum.Parked+sum.Errored+sum.Rejected > 0 {
		r.fail("server counters not clean: %+v", sum)
	}
	return sum
}

// serveBench is a set-up serve workload.
type serveBench struct {
	r        *run
	sessions []server.Session
	want     []expected
	rig      *rig
	cursor   int // next pool device
	drawn    int // arrival schedules drawn so far
}

// replayDirect runs one session through an in-process server.Replayer,
// the reference every served session must match.
func replayDirect(sess server.Session) (expected, error) {
	var exp expected
	rp, err := server.NewReplayer(sess.Hello, radio.GalaxyS43G(), func(m wire.Message) error {
		exp.framesOut = append(exp.framesOut, m)
		switch v := m.(type) {
		case wire.Decision:
			exp.decisions = append(exp.decisions, v)
		case wire.StatsSnapshot:
			exp.stats = v
		}
		return nil
	})
	if err != nil {
		return exp, err
	}
	for _, ev := range sess.Events {
		if err := rp.Apply(ev); err != nil {
			return exp, err
		}
	}
	if err := rp.Apply(wire.Ack{Seq: uint64(len(sess.Events)) + 1}); err != nil {
		return exp, err
	}
	return exp, nil
}

// setUpServe synthesizes the session pool, computes every reference
// outcome and starts the cluster.
func setUpServe(r *run) (*serveBench, error) {
	pop, err := workload.NewPopulation(workload.DefaultMix())
	if err != nil {
		return nil, err
	}
	sb := &serveBench{r: r}
	poolSeed := mix64(r.opts.seed, 4)
	for i := 0; i < r.opts.size.pool; i++ {
		dev, err := fleet.SynthesizeDevice(poolSeed, pop, i, serveHorizon)
		if err != nil {
			return nil, err
		}
		sess, err := server.SessionFromDevice(dev, fleetTheta, fleetK)
		if err != nil {
			return nil, err
		}
		exp, err := replayDirect(sess)
		if err != nil {
			return nil, fmt.Errorf("device %d reference replay: %w", i, err)
		}
		sb.sessions = append(sb.sessions, sess)
		sb.want = append(sb.want, exp)
	}
	if sb.rig, err = startRig(mix64(r.opts.seed, 5)); err != nil {
		return nil, err
	}
	return sb, nil
}

// sample is one session's timing and outcome.
type sample struct {
	device   int
	due      time.Time
	lag      time.Duration // generator lateness beyond what earlier slot waits imposed
	slotWait time.Duration // due session waiting for an in-flight slot
	latency  time.Duration // due time to complete outcome
	route    time.Duration // time inside Router.Dialer calls
	stats    wire.StatsSnapshot
	ok       bool
	heal     healing
}

// healing counts the client's recovery actions; all stay 0 on a clean
// network.
type healing struct {
	reconnects, resumes, replays, degraded, reroutes int
}

func (h *healing) add(o healing) {
	h.reconnects += o.reconnects
	h.resumes += o.resumes
	h.replays += o.replays
	h.degraded += o.degraded
	h.reroutes += o.reroutes
}

// phase is one open-loop run at a fixed offered rate.
type phase struct {
	name    string
	rate    float64
	samples []sample
	elapsed time.Duration
	cpu     time.Duration
	allocs  uint64
	gc      uint32
}

// arrivals draws a seeded Poisson schedule of n sessions at rate/s.
func (sb *serveBench) arrivals(rate float64, n int) []time.Duration {
	sb.drawn++
	rng := rand.New(rand.NewSource(mix64(sb.r.opts.seed, 6, uint64(sb.drawn))))
	offs := make([]time.Duration, n)
	t := 0.0
	for i := range offs {
		t += rng.ExpFloat64() / rate
		offs[i] = time.Duration(t * float64(time.Second))
	}
	return offs
}

// openLoop offers n sessions at rate/s as a seeded Poisson process, with
// at most nproc sessions in flight, and times each from its due instant.
func (sb *serveBench) openLoop(name string, rate float64, n int) *phase {
	offs := sb.arrivals(rate, n)
	ph := &phase{name: name, rate: rate, samples: make([]sample, n)}
	sem := make(chan struct{}, nproc())
	var wg sync.WaitGroup

	ms0, cpu0 := memSnapshot(), cpuTime()
	// The generator paces itself with nanosleep on a locked thread with
	// minimal timer slack: the runtime's timers round sub-millisecond
	// sleeps up to a millisecond, which would swamp session latency.
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		start := time.Now().Add(time.Millisecond)
		prevStart := start
		for k, off := range offs {
			due := start.Add(off)
			nanosleepUntil(due)
			noticed := time.Now()
			sem <- struct{}{}
			acquired := time.Now()
			s := &ph.samples[k]
			s.device = sb.cursor % len(sb.sessions)
			sb.cursor++
			s.due = due
			from := due
			if prevStart.After(from) {
				from = prevStart
			}
			s.lag = noticed.Sub(from)
			s.slotWait = acquired.Sub(noticed)
			prevStart = acquired
			wg.Add(1)
			go func() {
				defer wg.Done()
				sb.session(s, nil)
				<-sem
			}()
		}
		wg.Wait()
		ph.elapsed = time.Since(start)
	}()
	<-genDone
	ms1, cpu1 := memSnapshot(), cpuTime()
	ph.cpu = cpu1 - cpu0
	ph.allocs = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gc = ms1.NumGC - ms0.NumGC
	return ph
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// nanosleepUntil blocks the calling thread until t.
func nanosleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// session replays one pool device through the router and client.Run and
// checks its outcome against the direct replay.
func (sb *serveBench) session(s *sample, tr *tracer) {
	sess := sb.sessions[s.device]
	id := sess.Hello.DeviceID
	root := -1
	if tr != nil {
		root = tr.beginAt("session", -1, int64(id), s.due)
	}
	dial := sb.rig.router.Dialer(id)
	route := func() (net.Conn, bool, error) {
		sp := -1
		if tr != nil {
			sp = tr.begin("cluster.route", root, int64(id))
		}
		t0 := time.Now()
		conn, moved, err := dial()
		s.route += time.Since(t0)
		if sp >= 0 {
			tr.end(sp)
		}
		if moved {
			s.heal.reroutes++
		}
		return conn, moved, err
	}
	out, err := client.Run(client.Config{Route: route, Seed: sb.r.opts.seed}, sess)
	done := time.Now()
	s.latency = done.Sub(s.due)
	if tr != nil {
		tr.endAt(root, done)
	}
	if err != nil {
		return
	}
	s.heal.reconnects, s.heal.resumes, s.heal.replays = out.Reconnects, out.Resumes, out.Replays
	s.heal.degraded = out.DegradedStints
	s.stats = out.Stats
	s.ok = sameDecisions(out.Decisions, sb.want[s.device].decisions) && out.Stats == sb.want[s.device].stats &&
		out.Reconnects == 0 && out.Resumes == 0 && out.Replays == 0 && !out.Degraded && out.BusyResponses == 0
}

// sameDecisions compares two decision streams entry by entry.
func sameDecisions(a, b []wire.Decision) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Slot != b[i].Slot || a[i].Flush != b[i].Flush || len(a[i].Entries) != len(b[i].Entries) {
			return false
		}
		for j := range a[i].Entries {
			if a[i].Entries[j] != b[i].Entries[j] {
				return false
			}
		}
	}
	return true
}

// summary is a phase's outcome.
type summary struct {
	p50, p90, p99 float64 // ms
	lag99, wait99 float64 // ms
	failed        int
	foldDiffers   bool
}

// summarize computes a phase's latency quantiles and checks every
// session, plus the device-order FleetStats fold, against the direct
// replays.
func (sb *serveBench) summarize(ph *phase) summary {
	var sm summary
	lat := make([]float64, 0, len(ph.samples))
	lags := make([]float64, 0, len(ph.samples))
	waits := make([]float64, 0, len(ph.samples))
	served := map[int]wire.StatsSnapshot{}
	for _, s := range ph.samples {
		lat = append(lat, ms(s.latency))
		lags = append(lags, ms(s.lag))
		waits = append(waits, ms(s.slotWait))
		if !s.ok {
			sm.failed++
			continue
		}
		served[s.device] = s.stats
	}
	sm.p50, sm.p90, sm.p99 = quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99)
	sm.lag99, sm.wait99 = quantile(lags, 0.99), quantile(waits, 0.99)

	devices := make([]int, 0, len(served))
	for d := range served {
		devices = append(devices, d)
	}
	sort.Ints(devices)
	got, _ := cluster.NewFleetStats(0)
	want, _ := cluster.NewFleetStats(0)
	for _, d := range devices {
		got.Add(served[d])
		want.Add(sb.want[d].stats)
	}
	sm.foldDiffers = got.Report() != want.Report()
	return sm
}

// account adds a phase's sessions to the run's attempted/failed counts.
func (sb *serveBench) account(ph *phase, sm summary) {
	sb.r.attempted += int64(len(ph.samples))
	for _, s := range ph.samples {
		if !s.ok {
			sb.r.devicesFailed(1, "%s: device %d session did not match the direct replay", ph.name, s.device)
		}
	}
	if sm.foldDiffers {
		sb.r.fail("%s: FleetStats fold differs from the direct replays", ph.name)
	}
	fmt.Fprintf(sb.r.out, "%-8s rate %7.1f/s  sessions %6d  p50 %7.3f  p90 %7.3f  p99 %7.3f ms  lag99 %6.3f ms  wait99 %6.3f ms  failed %d\n",
		ph.name, ph.rate, len(ph.samples), sm.p50, sm.p90, sm.p99, sm.lag99, sm.wait99, sm.failed)
}

// sessionsFor is how many sessions a phase of the given length offers.
func sessionsFor(rate, seconds float64) int {
	n := int(rate * seconds)
	if n < 20 {
		n = 20
	}
	return n
}

func runServe(r *run) error {
	var sb *serveBench
	var times []float64
	for i := 0; i < r.opts.size.setups; i++ {
		if sb != nil {
			sb.rig.close()
		}
		start := time.Now()
		var err error
		if sb, err = setUpServe(r); err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
	}
	defer sb.rig.close()
	r.set("setup_s", quantile(times, 0.5))
	if r.opts.trace {
		return sb.trace()
	}

	lsm := sb.closedPhase("light", 1, 0.35*r.opts.seconds, nil)
	hsm := sb.closedPhase("heavy", nproc(), 0.65*r.opts.seconds, nil)
	sb.rig.counters(r)
	r.set("devices_per_s", hsm.rate)
	r.set("cpu_us_per_device", float64(hsm.cpu)/float64(hsm.sessions)/1e3)
	r.set("alloc_bytes_per_device", float64(lsm.allocs+hsm.allocs)/float64(lsm.sessions+hsm.sessions))
	r.set("max_rss_mb", maxRSSMB())
	r.set("p50_ms.light", lsm.p50)
	r.set("p50_ms.heavy", hsm.p50)
	fmt.Fprintf(r.out, "sessions_per_s %.1f with %d in flight (median of %d windows)\n", hsm.rate, nproc(), capacityWindows)
	return nil
}

// closedSummary is a closed-loop phase's outcome over its windows. The
// windows' samples are dropped once folded in, so the benchmark's own
// memory stays flat however many sessions a run completes.
type closedSummary struct {
	sessions int
	rate     float64 // median window's completed sessions per second
	p50      float64 // ms, median session latency over every window
	mean     time.Duration
	route    time.Duration // total time in Router.Dialer calls
	cpu      time.Duration // process CPU time
	allocs   uint64
	gc       uint32
	heal     healing
	devices  []int // every session's pool device, in completion order
}

// closedPhase runs sessions back to back with inflight always in flight,
// in capacityWindows consecutive windows sharing the given seconds, and
// checks every session.
func (sb *serveBench) closedPhase(name string, inflight int, seconds float64, tr *tracer) closedSummary {
	per := time.Duration(seconds / capacityWindows * float64(time.Second))
	var cs closedSummary
	var lat, rates []float64
	var total time.Duration
	for w := 0; w < capacityWindows; w++ {
		ph := sb.closedLoop(fmt.Sprintf("%s%d", name, w), inflight, per, tr)
		sb.account(ph, sb.summarize(ph))
		rates = append(rates, ph.rate)
		for _, s := range ph.samples {
			lat = append(lat, ms(s.latency))
			total += s.latency
			cs.route += s.route
			cs.heal.add(s.heal)
			cs.devices = append(cs.devices, s.device)
		}
		cs.sessions += len(ph.samples)
		cs.cpu += ph.cpu
		cs.allocs += ph.allocs
		cs.gc += ph.gc
	}
	cs.rate = quantile(rates, 0.5)
	cs.p50 = quantile(lat, 0.5)
	cs.mean = total / time.Duration(cs.sessions)
	return cs
}

// closedLoop keeps inflight sessions in flight, each worker starting its
// next session as the previous completes, for the given duration.
func (sb *serveBench) closedLoop(name string, inflight int, d time.Duration, tr *tracer) *phase {
	ph := &phase{name: name}
	ms0, cpu0 := memSnapshot(), cpuTime()
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				mu.Lock()
				s := sample{device: sb.cursor % len(sb.sessions), due: time.Now()}
				sb.cursor++
				mu.Unlock()
				sb.session(&s, tr)
				mu.Lock()
				ph.samples = append(ph.samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.rate = float64(len(ph.samples)) / ph.elapsed.Seconds()
	ms1, cpu1 := memSnapshot(), cpuTime()
	ph.cpu = cpu1 - cpu0
	ph.allocs = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gc = ms1.NumGC - ms0.NumGC
	return ph
}

// trace runs the light closed loop untraced and then traced, then the
// seeded open loop at the light and heavy rates for the generator and
// tail figures, and re-times the wire, server and cluster stages over the
// sessions the untraced light loop served.
func (sb *serveBench) trace() error {
	r, sz := sb.r, sb.r.opts.size
	secs := r.opts.seconds
	ucs := sb.closedPhase("light", 1, 0.3*secs, nil)
	tr := newTracer()
	tcs := sb.closedPhase("light+tr", 1, 0.3*secs, tr)
	openLight := sb.openLoop("open-light", sz.lightRate, sessionsFor(sz.lightRate, 0.2*secs))
	olsm := sb.summarize(openLight)
	sb.account(openLight, olsm)
	openHeavy := sb.openLoop("open-heavy", sz.heavyRate, sessionsFor(sz.heavyRate, 0.2*secs))
	ohsm := sb.summarize(openHeavy)
	sb.account(openHeavy, ohsm)

	st, err := sb.retime(ucs.devices)
	if err != nil {
		return err
	}
	c := sb.rig.counters(r)
	heal := ucs.heal
	heal.add(tcs.heal)
	for _, ph := range []*phase{openLight, openHeavy} {
		for _, s := range ph.samples {
			heal.add(s.heal)
		}
	}
	u := float64(ucs.mean)
	routeNs := float64(tcs.route) / float64(tcs.sessions)
	stages := routeNs + st.wireNs + st.newReplayerNs + st.applyNs*st.applied + st.foldNs

	r.set("wire.encode_ns_per_frame", st.encodeNs)
	r.set("wire.decode_ns_per_frame", st.decodeNs)
	r.set("wire.allocs_per_frame", st.allocsPerFrame)
	r.set("wire.frames_per_session", st.framesIn+st.framesOut)
	r.set("server.new_replayer_ns", st.newReplayerNs)
	r.set("server.apply_ns_per_frame", st.applyNs)
	r.set("server.decisions_per_session", st.decisions)
	r.set("server.refused", float64(c.Refused))
	r.set("server.shed", float64(c.Shed))
	r.set("server.parked", float64(c.Parked))
	r.set("client.reconnects", float64(heal.reconnects))
	r.set("client.resumes", float64(heal.resumes))
	r.set("client.replays", float64(heal.replays))
	r.set("client.degraded", float64(heal.degraded))
	r.set("cluster.route_ns_per_session", routeNs)
	r.set("cluster.lookup_ns", st.lookupNs)
	r.set("cluster.fold_ns_per_session", st.foldNs)
	r.set("cluster.reroutes", float64(heal.reroutes))
	r.set("serve.untraced_ns_per_session", u)
	r.set("serve.traced_ns_per_session", float64(tcs.mean))
	r.set("serve.residual_ns_per_session", u-stages)
	r.set("serve.cpu_ns_per_session", float64(ucs.cpu)/float64(ucs.sessions))
	r.set("serve.open_p50_ms.light", olsm.p50)
	r.set("serve.open_p99_ms.light", olsm.p99)
	r.set("serve.open_p50_ms.heavy", ohsm.p50)
	r.set("serve.open_p99_ms.heavy", ohsm.p99)
	r.set("gen.lag_ms_p99", ohsm.lag99)
	r.set("gen.slot_wait_ms_p99", ohsm.wait99)
	r.set("gc.cycles_per_kdevice", float64(ucs.gc)/(float64(ucs.sessions)/1000))
	r.set("trace.overhead_frac", float64(tcs.mean)/u-1)

	printLayers(r.out, tr.layers(), float64(tcs.sessions), "session")
	fmt.Fprintf(r.out, "\nper-session ledger, one in flight (ns): route %.0f + wire %.0f + new_replayer %.0f + apply %.0f + fold %.0f = %.0f; untraced mean latency %.0f; residual %.0f\n",
		routeNs, st.wireNs, st.newReplayerNs, st.applyNs*st.applied, st.foldNs, stages, u, u-stages)
	return tr.write(r.opts.spansDir, "spans-"+r.opts.workload+".jsonl")
}

// stageTimes are the re-timed per-session stage costs.
type stageTimes struct {
	encodeNs, decodeNs, allocsPerFrame float64
	framesIn, framesOut                float64 // per session
	applied                            float64 // frames a Replayer applies per session
	wireNs                             float64 // encode+decode of every frame of a session
	newReplayerNs, applyNs, decisions  float64
	lookupNs, foldNs                   float64
}

// retime re-runs, single-threaded and outside any timed phase, the wire
// codec, server.Replayer, Router.Lookup and FleetStats.Add over the
// sessions a phase served.
func (sb *serveBench) retime(devices []int) (stageTimes, error) {
	var st stageTimes
	var enc, dec, newRp, apply, lookup, fold time.Duration
	var in, out, applied, decisions float64
	sessionMsgs := make([][]wire.Message, len(devices))
	for i, d := range devices {
		sess, want := sb.sessions[d], sb.want[d]
		msgs := make([]wire.Message, 0, len(sess.Events)+3+len(want.framesOut))
		msgs = append(msgs, sess.Hello)
		msgs = append(msgs, sess.Events...)
		msgs = append(msgs, wire.Ack{Seq: uint64(len(sess.Events)) + 1}, wire.Ack{Seq: 0})
		sessionMsgs[i] = append(msgs, want.framesOut...)
		in += float64(len(sess.Events) + 2)
		out += float64(len(want.framesOut) + 1)
		applied += float64(len(sess.Events) + 1)
	}
	sessions, frames := float64(len(devices)), in+out

	var buf []byte
	ms0 := memSnapshot()
	t0 := time.Now()
	for _, msgs := range sessionMsgs {
		for _, m := range msgs {
			var err error
			if buf, err = wire.Append(buf[:0], m); err != nil {
				return st, err
			}
		}
	}
	enc = time.Since(t0)
	ms1 := memSnapshot()
	streams := make([][]byte, len(sessionMsgs))
	for i, msgs := range sessionMsgs {
		for _, m := range msgs {
			var err error
			if streams[i], err = wire.Append(streams[i], m); err != nil {
				return st, err
			}
		}
	}
	ms2 := memSnapshot()
	t0 = time.Now()
	for _, stream := range streams {
		for len(stream) > 0 {
			_, n, err := wire.Decode(stream)
			if err != nil {
				return st, err
			}
			stream = stream[n:]
		}
	}
	dec = time.Since(t0)
	ms3 := memSnapshot()

	for _, d := range devices {
		sess := sb.sessions[d]
		t0 := time.Now()
		rp, err := server.NewReplayer(sess.Hello, radio.GalaxyS43G(), func(m wire.Message) error {
			if _, ok := m.(wire.Decision); ok {
				decisions++
			}
			return nil
		})
		newRp += time.Since(t0)
		if err != nil {
			return st, err
		}
		t0 = time.Now()
		for _, ev := range sess.Events {
			if err := rp.Apply(ev); err != nil {
				return st, err
			}
		}
		if err := rp.Apply(wire.Ack{Seq: uint64(len(sess.Events)) + 1}); err != nil {
			return st, err
		}
		apply += time.Since(t0)
	}
	t0 = time.Now()
	for _, d := range devices {
		if _, _, _, err := sb.rig.router.Lookup(uint64(d)); err != nil {
			return st, err
		}
	}
	lookup = time.Since(t0)
	fs, err := cluster.NewFleetStats(0)
	if err != nil {
		return st, err
	}
	t0 = time.Now()
	for _, d := range devices {
		fs.Add(sb.want[d].stats)
	}
	fold = time.Since(t0)

	st.encodeNs = float64(enc) / frames
	st.decodeNs = float64(dec) / frames
	st.allocsPerFrame = float64(ms1.Mallocs-ms0.Mallocs+ms3.Mallocs-ms2.Mallocs) / (2 * frames)
	st.framesIn, st.framesOut = in/sessions, out/sessions
	st.applied = applied / sessions
	st.wireNs = (st.encodeNs + st.decodeNs) * (st.framesIn + st.framesOut)
	st.newReplayerNs = float64(newRp) / sessions
	st.applyNs = float64(apply) / applied
	st.decisions = decisions / sessions
	st.lookupNs = float64(lookup) / sessions
	st.foldNs = float64(fold) / sessions
	return st, nil
}
