// Command etraind is the network-facing eTrain scheduling daemon: it
// listens for device connections and hosts one wire-protocol session per
// connection (DESIGN.md §10).
//
// Usage:
//
//	go run ./cmd/etraind -addr :4810
//	go run ./cmd/etrain-load -addr 127.0.0.1:4810 -devices 1000
//
// A session that loses its connection mid-protocol parks for
// -resume-grace and a reconnecting client adopts it with a Resume
// handshake, replaying only the unacknowledged tail (DESIGN.md §11).
//
// Ctrl-C / SIGTERM starts a graceful drain: new connections are refused,
// parked sessions are discarded, running sessions finish — the
// -drain-timeout deadline is armed on every open connection, so wedged
// peers cannot stall the drain — and after -drain-timeout whatever
// remains is force-closed. The final counters go to stderr.
//
// # Cluster modes (DESIGN.md §13)
//
// One binary plays both cluster roles. As the control plane:
//
//	go run ./cmd/etraind -control :4800 -ops :4801
//
// runs the controller alone (no session listener): shards register over
// -control, the route table rebuilds on every membership change, and the
// ops HTTP surface on -ops serves /metrics, /status, /shards, /sessions,
// /table and POST /drain for cmd/etrain-ctl. A shard silent past
// -beat-timeout is swept dead.
//
// As a shard:
//
//	go run ./cmd/etraind -addr :4810 -join 127.0.0.1:4800 -shard-id 1
//
// serves sessions as usual while a control-plane agent keeps the shard
// registered: ShardHello on connect, a beat plus a counter snapshot
// every -beat. When a pushed route table no longer lists this shard
// (drained or swept), the server turns lame-duck — new connections are
// refused while in-flight sessions finish — and recovers if a later
// table lists it again.
//
// This command is a wall-clock boundary of the service subsystem: the
// clock injected here arms connection deadlines and drives beats and
// sweeps, while internal/server and internal/cluster never read time —
// a session's decisions remain a pure function of its inbound frames.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"etrain/internal/cluster"
	"etrain/internal/server"
	"etrain/internal/wire"
)

func main() {
	addr := flag.String("addr", ":4810", "session listen address")
	maxConns := flag.Int("max-conns", 0, "concurrent connection cap (0: default 4096)")
	queueDepth := flag.Int("queue-depth", 0, "per-session event queue bound (0: default 64)")
	idle := flag.Duration("idle-timeout", 2*time.Minute, "max wait for a client's next frame (0: none)")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "max duration of one frame write (0: none)")
	drain := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget before force-closing sessions")
	resumeGrace := flag.Duration("resume-grace", server.DefaultResumeGrace, "how long a disconnected session stays resumable (negative: disable resume)")
	retainLimit := flag.Int("retain-limit", 0, "max parked sessions awaiting resume (0: default 1024)")

	admissionRate := flag.Float64("admission-rate", 0, "token-bucket hello admission rate per second (0: admission control off, legacy silent-close behaviour)")
	admissionBurst := flag.Float64("admission-burst", 0, "token-bucket hello burst (with -admission-rate; 0: default)")
	admissionHighWater := flag.Int("admission-highwater", 0, "per-session queue depth past which cargo is shed with Busy (with -admission-rate; 0: never shed)")
	admissionRetryAfter := flag.Duration("admission-retry-after", 0, "retry-after hint carried in Busy frames (with -admission-rate; 0: default)")

	control := flag.String("control", "", "run as the cluster controller on this control address (no session listener)")
	ops := flag.String("ops", "", "controller ops HTTP listen address (with -control)")
	ringSeed := flag.Int64("ring-seed", 42, "consistent-hash ring seed published in the route table (with -control)")
	vnodes := flag.Int("vnodes", 0, "ring virtual nodes per shard (with -control; 0: default)")
	beatTimeout := flag.Duration("beat-timeout", cluster.DefaultBeatTimeout, "sweep a shard silent this long (with -control)")
	snapshot := flag.String("snapshot", "", "controller state snapshot path: loaded at boot when present, rewritten on every sweep tick and at shutdown (with -control)")
	rejoinGrace := flag.Duration("rejoin-grace", cluster.DefaultRejoinGrace, "post-restore window during which restored members are shielded from sweeps (with -control -snapshot)")

	join := flag.String("join", "", "controller control address to register with (shard mode)")
	shardID := flag.Uint64("shard-id", 0, "this shard's ring ID (with -join)")
	advertise := flag.String("advertise", "", "session address published in the route table (with -join; default: the -addr listener's address)")
	beat := flag.Duration("beat", cluster.DefaultBeatEvery, "shard beat cadence (with -join)")
	flag.Parse()

	logger := log.New(os.Stderr, "etraind: ", log.LstdFlags)
	if *control != "" && *join != "" {
		logger.Fatal("-control and -join are mutually exclusive: a process is the controller or a shard")
	}
	if *control != "" {
		runController(logger, controllerFlags{
			control: *control, ops: *ops, ringSeed: *ringSeed,
			vnodes: *vnodes, beatTimeout: *beatTimeout, drain: *drain,
			snapshot: *snapshot, rejoinGrace: *rejoinGrace,
		})
		return
	}

	var admission server.Admission
	if *admissionRate > 0 {
		admission = server.NewTokenBucketAdmission(server.TokenBucketConfig{
			Rate:       *admissionRate,
			Burst:      *admissionBurst,
			RetryAfter: *admissionRetryAfter,
			HighWater:  *admissionHighWater,
			//lint:ignore notime daemon boundary: the injected clock refills the admission bucket; the policy never reads time itself
			Clock: time.Now,
		})
		logger.Printf("admission control on: %.1f hellos/s, burst %.0f, highwater %d",
			*admissionRate, *admissionBurst, *admissionHighWater)
	}

	srv := server.New(server.Config{
		Admission:      admission,
		MaxConns:       *maxConns,
		QueueDepth:     *queueDepth,
		IdleTimeout:    *idle,
		WriteTimeout:   *writeTimeout,
		ResumeGrace:    *resumeGrace,
		RetainSessions: *retainLimit,
		DrainTimeout:   *drain,
		//lint:ignore notime daemon boundary: the injected clock arms connection deadlines; internal/server never reads time itself
		Clock: time.Now,
		Logf:  logger.Printf,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("listening on %s", l.Addr())

	var agentStop context.CancelFunc
	agentDone := make(chan struct{})
	if *join != "" {
		if *shardID == 0 {
			logger.Fatal("-join requires a nonzero -shard-id")
		}
		pub := *advertise
		if pub == "" {
			pub = l.Addr().String()
		}
		var ctx context.Context
		ctx, agentStop = context.WithCancel(context.Background())
		go func() {
			defer close(agentDone)
			err := cluster.RunAgent(ctx, cluster.AgentConfig{
				ShardID:   *shardID,
				Advertise: pub,
				Dial:      func() (net.Conn, error) { return net.Dial("tcp", *join) },
				Stats:     func() wire.ShardStats { return cluster.CountersToShardStats(*shardID, srv.Stats()) },
				BeatEvery: *beat,
				//lint:ignore notime daemon boundary: the beat cadence is real time by definition
				Sleep:        time.Sleep,
				OnRouteTable: lameDuckWatch(srv, *shardID, logger),
				Logf:         logger.Printf,
			})
			if err != nil && err != context.Canceled {
				logger.Printf("agent: %v", err)
			}
		}()
		logger.Printf("shard %d joined controller %s advertising %s", *shardID, *join, pub)
	} else {
		close(agentDone)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	select {
	case err := <-serveErr:
		logger.Fatal(err)
	case sig := <-sigc:
		logger.Printf("%s: draining (budget %s)", sig, *drain)
	}
	if agentStop != nil {
		// Drop the control conn first so the controller reroutes while we
		// drain, then wait the agent out.
		agentStop()
		<-agentDone
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("drain incomplete: %v", err)
	}
	if err := <-serveErr; err != nil && err != server.ErrServerClosed {
		logger.Printf("serve: %v", err)
	}
	s := srv.Stats()
	fmt.Fprintf(os.Stderr,
		"etraind: accepted %d rejected %d completed %d errored %d panics %d parked %d resumed %d misses %d discarded %d frames in/out %d/%d decisions %d\n",
		s.Accepted, s.Rejected, s.Completed, s.Errored, s.Panics,
		s.Parked, s.Resumed, s.ResumeMisses, s.Discarded,
		s.FramesIn, s.FramesOut, s.Decisions)
	if s.Refused+s.Shed+s.BusySent > 0 {
		fmt.Fprintf(os.Stderr, "etraind: overload refused %d shed %d busy-sent %d\n",
			s.Refused, s.Shed, s.BusySent)
	}
}

// lameDuckWatch returns the route-table hook that flips the server
// lame-duck whenever a pushed table stops (or resumes) listing this
// shard: absent means drained or swept, so new sessions must go to the
// new owners while in-flight ones finish here.
func lameDuckWatch(srv *server.Server, id uint64, logger *log.Logger) func(wire.RouteTable) {
	return func(t wire.RouteTable) {
		listed := false
		for _, e := range t.Shards {
			if e.ShardID == id {
				listed = true
				break
			}
		}
		if srv.LameDucking() == listed { // state change only
			srv.SetLameDuck(!listed)
			if listed {
				logger.Printf("route table epoch %d lists us again: accepting sessions", t.Epoch)
			} else {
				logger.Printf("route table epoch %d dropped us: lame-duck, finishing in-flight sessions", t.Epoch)
			}
		}
	}
}

// controllerFlags carries the parsed -control mode flags.
type controllerFlags struct {
	control, ops string
	ringSeed     int64
	vnodes       int
	beatTimeout  time.Duration
	drain        time.Duration
	snapshot     string
	rejoinGrace  time.Duration
}

// runController serves the cluster control plane: the control listener
// for shard agents and route watchers, a sweep ticker retiring silent
// shards, and the ops HTTP surface.
func runController(logger *log.Logger, cf controllerFlags) {
	var restore *cluster.ControllerSnapshot
	if cf.snapshot != "" {
		snap, err := cluster.LoadSnapshot(cf.snapshot)
		switch {
		case err == nil:
			restore = snap
			logger.Printf("restoring from %s: epoch %d, %d members, rejoin grace %s",
				cf.snapshot, snap.Epoch, len(snap.Shards), cf.rejoinGrace)
		case errors.Is(err, os.ErrNotExist):
			logger.Printf("no snapshot at %s: cold start", cf.snapshot)
		default:
			// A torn or corrupt snapshot is a config error, not something
			// to silently cold-start over — the operator decides.
			logger.Fatal(err)
		}
	}
	c := cluster.NewController(cluster.ControllerConfig{
		RingSeed:    cf.ringSeed,
		Vnodes:      cf.vnodes,
		BeatTimeout: cf.beatTimeout,
		Restore:     restore,
		RejoinGrace: cf.rejoinGrace,
		//lint:ignore notime daemon boundary: the injected clock ages beats; internal/cluster never reads time itself
		Clock: time.Now,
		Logf:  logger.Printf,
	})
	persist := func() {
		if cf.snapshot == "" {
			return
		}
		if err := c.WriteSnapshot(cf.snapshot); err != nil {
			logger.Printf("snapshot: %v", err)
		}
	}
	l, err := net.Listen("tcp", cf.control)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("controller on %s (ring seed %d, beat timeout %s)", l.Addr(), cf.ringSeed, cf.beatTimeout)

	serveErr := make(chan error, 1)
	go func() { serveErr <- c.Serve(l) }()

	var opsSrv *http.Server
	if cf.ops != "" {
		opsl, err := net.Listen("tcp", cf.ops)
		if err != nil {
			logger.Fatal(err)
		}
		logger.Printf("ops on http://%s", opsl.Addr())
		opsSrv = &http.Server{Handler: c.OpsHandler()}
		go func() {
			if err := opsSrv.Serve(opsl); err != nil && err != http.ErrServerClosed {
				logger.Printf("ops: %v", err)
			}
		}()
	}

	// The sweep cadence halves the timeout so a dead shard is declared at
	// most 1.5 timeouts after its last beat.
	//lint:ignore notime daemon boundary: the sweep ticker drives beat expiry; Controller.Sweep itself only compares injected clock readings
	sweep := time.NewTicker(cf.beatTimeout / 2)
	defer sweep.Stop()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case <-sweep.C:
			c.Sweep()
			persist()
		case err := <-serveErr:
			logger.Fatal(err)
		case sig := <-sigc:
			logger.Printf("%s: shutting down", sig)
			ctx, cancel := context.WithTimeout(context.Background(), cf.drain)
			defer cancel()
			if opsSrv != nil {
				if err := opsSrv.Shutdown(ctx); err != nil {
					logger.Printf("ops shutdown: %v", err)
				}
			}
			persist() // the final state outlives the process
			if err := c.Shutdown(ctx); err != nil {
				logger.Printf("controller shutdown: %v", err)
			}
			st := c.Status()
			fmt.Fprintf(os.Stderr, "etraind: controller epoch %d, %d shards, %d deaths, %d drains\n",
				st.Epoch, len(st.Shards), st.Deaths, st.Drains)
			return
		}
	}
}
