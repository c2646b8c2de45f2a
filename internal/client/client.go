// Package client is the self-healing counterpart to internal/server: it
// replays one device session against an etraind server and survives a
// hostile transport. A broken connection triggers reconnection with
// capped, deterministically jittered exponential backoff; a reconnect
// resumes the parked server session (wire.Resume) and replays only the
// unacknowledged tail; and when the server stays unreachable the client
// degrades gracefully to local scheduling — the same server.Replayer
// code path the server itself runs — so decisions keep flowing and, by
// determinism, are byte-identical to what the server would have sent
// (DESIGN.md §11).
package client

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"etrain/internal/radio"
	"etrain/internal/randx"
	"etrain/internal/server"
	"etrain/internal/wire"
)

// Defaults for the zero Config.
const (
	// DefaultMaxAttempts is how many consecutive no-progress connection
	// attempts are tolerated before degrading to local scheduling.
	DefaultMaxAttempts = 5
	// DefaultBaseBackoff seeds the exponential reconnect backoff.
	DefaultBaseBackoff = 50 * time.Millisecond
	// DefaultMaxBackoff caps the exponential reconnect backoff.
	DefaultMaxBackoff = 5 * time.Second
	// DefaultRetryEvery is how many locally applied events pass between
	// reconnection probes while degraded.
	DefaultRetryEvery = 64
	// DefaultRetryBudget is the per-session busy-retry token budget: how
	// many wire.Busy responses the client absorbs (sleeping the server's
	// hinted backoff each time) before it stops hammering an overloaded
	// server and degrades to local scheduling. Successful exchanges refill
	// the bucket one token at a time, SRE retry-budget style, so a brief
	// overload costs a few tokens while a sustained one drains the budget
	// exactly once.
	DefaultRetryBudget = 8
)

// resumeRetries is how many additional Resume handshakes are attempted
// after a failed one before falling back to a full Hello replay. The
// client notices a dead transport before the server does (its own write
// fails first), so the first Resume can race the server parking the old
// session; one backed-off retry absorbs that window.
const resumeRetries = 1

// Config parameterizes a resilient session run.
type Config struct {
	// Dial opens a connection to the server. It is called for the
	// initial connection, every reconnect, and degraded-mode probes.
	// Exactly one of Dial and Route is required.
	Dial func() (net.Conn, error)
	// Route is the cluster-aware alternative to Dial: each call routes
	// the device under the newest route table (cluster.Router.Dialer
	// returns this shape) and reports moved=true when the endpoint
	// differs from the previous successful dial. A moved connection
	// reaches a shard that never parked this session, so the client
	// skips the Resume handshake there and goes straight to a full
	// Hello replay — which, by determinism, regenerates the exact
	// stream the old shard would have sent.
	Route func() (conn net.Conn, moved bool, err error)
	// MaxAttempts bounds consecutive no-progress attempts before the
	// client degrades to local scheduling (DefaultMaxAttempts if zero).
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the reconnect backoff
	// (DefaultBaseBackoff / DefaultMaxBackoff if zero).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed roots the deterministic backoff jitter.
	Seed int64
	// Sleep imposes backoff waits; nil disables waiting (tests retry
	// instantly but still draw identical jitter sequences).
	Sleep func(time.Duration)
	// Clock, when non-nil, measures wall time spent in degraded mode.
	Clock func() time.Time
	// RetryEvery is the initial degraded-mode probe cadence, in applied
	// events (DefaultRetryEvery if zero); it doubles with every stint so
	// sustained chaos converges on a probe-free local completion.
	RetryEvery int
	// RetryBudget caps busy-retries per session (DefaultRetryBudget if
	// zero): each wire.Busy from the server spends one token, each
	// exchange that makes progress refills one (never past the cap), and
	// exhaustion sends the session to a degraded stint instead of another
	// retry — the herd damping that keeps a synchronized failover from
	// retry-storming the surviving shards.
	RetryBudget int
}

// Outcome is what one resilient session run produced, plus how hard the
// transport fought it.
type Outcome struct {
	Decisions []wire.Decision
	Stats     wire.StatsSnapshot

	Attempts       int           // dial attempts, including the first and degraded probes
	Reconnects     int           // successful dials after the first
	Resumes        int           // successful Resume handshakes
	Replays        int           // full Hello replays after losing an admitted session
	DegradedStints int           // times the client fell back to local scheduling
	DegradedEvents int           // events first scheduled locally while degraded
	Degraded       bool          // DegradedStints > 0
	DegradedTime   time.Duration // wall time degraded (needs Clock)
	// CompletedLocally reports that the session's final frames were
	// produced by a degraded stint, not a server: the client finished
	// locally and never reconciled with a live connection. Such sessions
	// are correct (determinism makes the local stream authoritative) but
	// a load report that counts only Degraded understates how many
	// sessions ended without the server ever confirming them.
	CompletedLocally bool

	// BusyResponses counts wire.Busy frames received from servers.
	BusyResponses int
	// BudgetExhausted counts the times the busy-retry budget ran dry,
	// each forcing a degraded stint; it is the healing ledger's record
	// that overload — not transport loss — degraded the session.
	BudgetExhausted int
	// BusyWait is the total busy-induced backoff the client was asked to
	// wait (the seed-jittered sum of the servers' RetryAfter hints) — the
	// herd-recovery latency contribution of this session. It accumulates
	// even with a nil Sleep, so deterministic tests see the same ledger a
	// real run would.
	BusyWait time.Duration
}

// state is one run's progress: the session's frames, the authoritative
// frame stream assembled so far, and the resume bookkeeping. States are
// pooled with their exchange scratch — the frame reader and writer, the
// reader goroutine's done signal, the frames and the stream's buffers —
// so a clean run allocates only its Outcome and the reader goroutine's
// start.
type state struct {
	cfg   Config
	hello wire.Hello
	token uint64
	// events are the session's event frames, read in place: client
	// session frame n is events[n-1] for n <= len(events), then the
	// finish Ack (finishAck).
	events []wire.Message

	// out is the session's authoritative server-frame stream: decisions,
	// then stats, then the final ack — whether frames arrived over a
	// connection or were generated locally while degraded. out.n is what
	// Resume confirms.
	out  stream
	done bool

	admitted    bool // a server accepted our Hello at least once
	localFinish bool // a degraded stint produced the final frames
	canResume   bool // the parked session is presumed resumable
	resumeFails int  // consecutive failed Resume handshakes
	// maxApplied is the highest journal frame known applied by the
	// authoritative engine (server's ResumeOK, or local replay).
	maxApplied int

	// probeEvery is the current degraded-mode probe cadence. It starts at
	// cfg.RetryEvery and doubles with every stint: each abandoned stint is
	// evidence the transport is still hostile, so probing backs off until a
	// stint eventually runs probe-free and completes the session locally —
	// guaranteeing termination under sustained chaos while a brief outage
	// still reconciles on the first probe.
	probeEvery int

	// rng draws the deterministic jitter for both reconnect backoff and
	// busy-wait sleeps; jitter seeds it on first use.
	rng *randx.Source

	// budget is the busy-retry token bucket: spent by noteBusy, refilled
	// (capped at budgetCap) by exchanges that make progress. mustDegrade
	// latches when a Busy lands on an empty bucket; the run loop answers
	// it with an immediate degraded stint.
	budget      int
	budgetCap   int
	mustDegrade bool

	attempts        int
	reconnects      int
	resumes         int
	replays         int
	stints          int
	degradedEvents  int
	degradedTime    time.Duration
	busyResponses   int
	budgetExhausted int
	busyWait        time.Duration

	// Exchange scratch. r reads the current conn, unbuffered, and w
	// batches writes to it; rx is the frame r decodes into — the
	// handshake's, then the reader goroutine's — and tx the frame the
	// handshake and the finish Ack are encoded from. busy collects the
	// reader's Busy frames and readDone carries its one exit signal per
	// exchange.
	r        *wire.Reader
	w        *wire.Writer
	rx, tx   wire.Frame
	busy     []wire.Busy
	readDone chan struct{}
}

// statePool holds finished runs' states; Run takes its state from it.
var statePool = sync.Pool{New: func() any {
	return &state{r: wire.NewReader(nil), w: wire.NewWriter(nil), readDone: make(chan struct{}, 1)}
}}

// stream is a session's authoritative server-frame stream, held typed:
// the decisions, their entries back to back, the stats snapshot, and
// whether the final ack arrived. n counts its frames; err latches the
// first frame out of protocol order, which outcome reports.
type stream struct {
	deviceID  uint64
	n         int
	decisions []heldDecision
	entries   []wire.DecisionEntry
	stats     wire.StatsSnapshot
	sawStats  bool
	final     bool
	err       error
}

// heldDecision is one Decision of a stream: its entries are the stream's
// entries up to end, from the previous decision's end.
type heldDecision struct {
	slot  time.Duration
	flush bool
	end   int
}

// fail latches err unless an earlier frame already failed the stream.
func (s *stream) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// next counts one more frame, failing the stream if it follows the final
// ack.
func (s *stream) next() {
	if s.final {
		s.fail(fmt.Errorf("client: misplaced ack in session stream"))
	}
	s.n++
}

// addFrame appends one server session frame decoded into f.
//
//etrain:hotpath
func (s *stream) addFrame(f *wire.Frame) {
	switch f.Type {
	case wire.TypeDecision:
		s.addDecision(&f.Decision)
	case wire.TypeStatsSnapshot:
		s.addStats(f.Stats)
	case wire.TypeAck:
		s.addAck()
	default:
		s.next()
		s.fail(fmt.Errorf("client: unexpected %s frame in session stream", f.Type))
	}
}

// addMessage appends one server session frame a degraded stint produced.
func (s *stream) addMessage(m wire.Message) {
	switch v := m.(type) {
	case wire.Decision:
		s.addDecision(&v)
	case wire.StatsSnapshot:
		s.addStats(v)
	case wire.Ack:
		s.addAck()
	default:
		s.next()
		s.fail(fmt.Errorf("client: unexpected %s frame in session stream", m.MsgType()))
	}
}

func (s *stream) addDecision(d *wire.Decision) {
	s.next()
	if s.sawStats {
		s.fail(fmt.Errorf("client: decision after stats snapshot"))
	}
	s.entries = append(s.entries, d.Entries...)
	s.decisions = append(s.decisions, heldDecision{slot: d.Slot, flush: d.Flush, end: len(s.entries)})
}

func (s *stream) addStats(v wire.StatsSnapshot) {
	s.next()
	if v.DeviceID != s.deviceID {
		s.fail(fmt.Errorf("client: stats for device %d, want %d", v.DeviceID, s.deviceID))
	}
	s.stats = v
	s.sawStats = true
}

func (s *stream) addAck() {
	s.next()
	if !s.sawStats {
		s.fail(fmt.Errorf("client: misplaced ack in session stream"))
	}
	s.final = true
}

// Run replays sess against the server reached through cfg.Dial,
// reconnecting, resuming and degrading as needed, until the session's
// full decision stream and stats snapshot are assembled. It fails only
// on protocol or engine errors — never on transport faults.
func Run(cfg Config, sess server.Session) (*Outcome, error) {
	if cfg.Dial == nil && cfg.Route == nil {
		return nil, fmt.Errorf("client: one of Config.Dial and Config.Route is required")
	}
	if cfg.Dial != nil && cfg.Route != nil {
		return nil, fmt.Errorf("client: Config.Dial and Config.Route are mutually exclusive")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = DefaultBaseBackoff
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = DefaultRetryEvery
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = DefaultRetryBudget
	}
	st := statePool.Get().(*state)
	defer st.release()
	st.open(cfg, sess)

	consecFail := 0
	var conn net.Conn // a live connection handed over by a degraded probe
	for !st.done {
		if conn == nil {
			c, err := st.dial()
			if err != nil {
				consecFail++
				if consecFail >= cfg.MaxAttempts {
					consecFail = 0
					c2, err := st.stint()
					if err != nil {
						return nil, err
					}
					conn = c2
				} else {
					st.backoff(consecFail)
				}
				continue
			}
			if st.attempts > 1 {
				st.reconnects++
			}
			conn = c
		}
		progress, err := st.exchange(conn)
		conn = nil
		if err != nil {
			return nil, err
		}
		if st.done {
			break
		}
		if st.mustDegrade {
			// The busy-retry budget ran dry: stop hammering the overloaded
			// server and schedule locally; a probe reconciles later if the
			// server recovers.
			st.mustDegrade = false
			consecFail = 0
			c2, err := st.stint()
			if err != nil {
				return nil, err
			}
			conn = c2
			continue
		}
		if progress {
			consecFail = 0
			st.refill()
			continue
		}
		consecFail++
		if consecFail >= cfg.MaxAttempts {
			consecFail = 0
			c2, err := st.stint()
			if err != nil {
				return nil, err
			}
			conn = c2
			continue
		}
		st.backoff(consecFail)
	}
	return st.outcome()
}

// open readies a pooled state for a run of sess under cfg, keeping only
// the scratch's capacity.
func (st *state) open(cfg Config, sess server.Session) {
	*st = state{
		cfg:        cfg,
		hello:      sess.Hello,
		token:      wire.SessionToken(sess.Hello),
		events:     sess.Events,
		probeEvery: cfg.RetryEvery,
		budget:     cfg.RetryBudget,
		budgetCap:  cfg.RetryBudget,
		out: stream{
			deviceID:  sess.Hello.DeviceID,
			decisions: st.out.decisions[:0],
			entries:   st.out.entries[:0],
		},
		r:        st.r,
		w:        st.w,
		rx:       st.rx,
		tx:       st.tx,
		busy:     st.busy[:0],
		readDone: st.readDone,
	}
}

// release returns st to the pool once the run is over: no exchange's
// reader goroutine is left, and the run's config, session and connection
// are dropped so the pool keeps none of them alive.
func (st *state) release() {
	st.cfg = Config{}
	st.events = nil
	st.rng = nil
	st.r.Reset(nil)
	st.w.Reset(nil)
	statePool.Put(st)
}

// journalLen is the number of client session frames: the events, then
// the finish Ack.
func (st *state) journalLen() int { return len(st.events) + 1 }

// finishAck is the session's finish Ack, client session frame
// journalLen().
func (st *state) finishAck() wire.Ack { return wire.Ack{Seq: uint64(len(st.events)) + 1} }

// dial opens one connection through whichever hook the config carries,
// counting the attempt. A Route dial that reports the device's shard
// moved invalidates the parked session — it lives (if anywhere) on a
// shard this connection does not reach — so the next handshake is a
// full Hello replay rather than a doomed Resume.
func (st *state) dial() (net.Conn, error) {
	st.attempts++
	if st.cfg.Route == nil {
		return st.cfg.Dial()
	}
	conn, moved, err := st.cfg.Route()
	if err != nil {
		return nil, err
	}
	if moved {
		st.canResume = false
		st.resumeFails = 0
	}
	return conn, nil
}

// jitter returns the backoff-jitter source, seeding it on first use: a
// session that never backs off never pays for the seeded table, and the
// draws are the same whenever the seeding happens.
func (st *state) jitter() *randx.Source {
	if st.rng == nil {
		st.rng = randx.New(randx.Derive(st.cfg.Seed, st.hello.DeviceID, 0x6261636b6f6666)) // "backoff"
	}
	return st.rng
}

// backoff sleeps the capped exponential delay for the given consecutive
// failure count, with deterministic jitter in [d/2, d].
func (st *state) backoff(consec int) {
	d := st.cfg.BaseBackoff
	for i := 1; i < consec && d < st.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > st.cfg.MaxBackoff {
		d = st.cfg.MaxBackoff
	}
	half := int64(d / 2)
	jittered := time.Duration(half + st.jitter().Int63()%(half+1))
	if st.cfg.Sleep != nil {
		st.cfg.Sleep(jittered)
	}
}

// noteBusy records one wire.Busy from the server: honor RetryAfter with
// seed-jittered damping (a sleep in [RA/2, RA], so a synchronized herd
// of refused clients desynchronizes instead of re-arriving as one wave)
// and spend one retry-budget token. A Busy landing on an empty bucket
// latches mustDegrade instead — the client stops retrying and schedules
// locally.
func (st *state) noteBusy(b wire.Busy) {
	st.busyResponses++
	if b.RetryAfter > 0 {
		half := int64(b.RetryAfter / 2)
		jittered := time.Duration(half + st.jitter().Int63()%(half+1))
		st.busyWait += jittered
		if st.cfg.Sleep != nil {
			st.cfg.Sleep(jittered)
		}
	}
	if st.budget > 0 {
		st.budget--
		return
	}
	st.budgetExhausted++
	st.mustDegrade = true
}

// refill returns one busy-retry token after an exchange that made
// progress, never past the configured cap.
func (st *state) refill() {
	if st.budget < st.budgetCap {
		st.budget++
	}
}

// handshakeAnswer reads the server's answer to a Hello or Resume into
// st.rx, skipping advisory Redirect hints (the route table stays
// authoritative).
func (st *state) handshakeAnswer() error {
	for {
		if err := st.r.ReadFrame(&st.rx); err != nil {
			return err
		}
		if st.rx.Type != wire.TypeRedirect {
			return nil
		}
	}
}

// exchange runs one full attempt on conn: handshake (Resume when an
// admitted session is presumed parked, Hello otherwise), send the
// unacknowledged journal tail in one batch, and collect server frames
// until the final ack or a transport failure. It closes conn, reports
// whether the attempt advanced the session, and returns an error only
// for unrecoverable protocol violations.
func (st *state) exchange(conn net.Conn) (progress bool, fatal error) {
	defer conn.Close()
	w := st.w
	w.Reset(conn)
	st.r.Reset(conn)

	start := 0 // journal frames the server already consumed
	skip := 0  // duplicate regenerated frames to discard (full replay)
	if st.admitted && st.canResume {
		st.tx.Type = wire.TypeResume
		st.tx.Resume = wire.Resume{DeviceID: st.hello.DeviceID, Token: st.token, Got: uint64(st.out.n)}
		if err := w.WriteFrame(&st.tx); err != nil {
			return false, nil
		}
		if err := st.handshakeAnswer(); err != nil {
			// Indistinguishable here: the server refused the resume (not
			// parked yet, expired, or disabled) or the transport died.
			// Retry the resume a bounded number of times — the backoff
			// gives a server that has not yet noticed the dead conn time
			// to park — then fall back to a full Hello replay; determinism
			// makes either path safe.
			st.resumeFails++
			if st.resumeFails > resumeRetries {
				st.canResume = false
			}
			return false, nil
		}
		if st.rx.Type == wire.TypeBusy {
			// The shard is overloaded, not gone: the parked session stays
			// presumed resumable for the post-backoff retry.
			st.noteBusy(st.rx.Busy)
			return false, nil
		}
		if st.rx.Type != wire.TypeResumeOK {
			return false, fmt.Errorf("client: resume answer is %s, want resume_ok", st.rx.Type)
		}
		got := st.rx.ResumeOK.Got
		if got > uint64(st.journalLen()) {
			return false, fmt.Errorf("client: server consumed %d frames, session has %d", got, st.journalLen())
		}
		st.resumes++
		st.resumeFails = 0
		start = int(got)
		if start > st.maxApplied {
			st.maxApplied = start
		}
	} else {
		st.tx.Type, st.tx.Hello = wire.TypeHello, st.hello
		if err := w.WriteFrame(&st.tx); err != nil {
			return false, nil
		}
		if err := st.handshakeAnswer(); err != nil {
			return false, nil
		}
		if st.rx.Type == wire.TypeBusy {
			st.noteBusy(st.rx.Busy)
			return false, nil
		}
		if st.rx.Type != wire.TypeAck {
			return false, fmt.Errorf("client: admission frame is %s, want ack{0}", st.rx.Type)
		}
		if st.rx.Ack.Seq != 0 {
			return false, fmt.Errorf("client: admission frame is ack{%d}, want ack{0}", st.rx.Ack.Seq)
		}
		if st.admitted {
			st.replays++
		}
		st.admitted = true
		st.canResume = true
		st.resumeFails = 0
		skip = st.out.n
	}

	// The reader goroutine is the conn's only reader, and the only user
	// of st.r, st.rx, st.busy and st.out, from here until it signals
	// readDone; it exits on the final ack or the first read error, and the
	// handover below joins it on every path (the conn closes either way,
	// so a blocked read cannot strand it).
	before := st.out.n
	go st.readLoop(skip) // the exchange's one allocation: the goroutine's start
	// The whole unacknowledged tail goes out as one batch. Reads stay
	// unbuffered: faultnet draws one fault per read call, so a read-ahead
	// buffer would change the fault schedule a seed produces.
	var writeErr error
	for i := start; i < len(st.events) && writeErr == nil; i++ {
		writeErr = w.Buffer(st.events[i])
	}
	if writeErr == nil && start <= len(st.events) {
		st.tx.Type, st.tx.Ack = wire.TypeAck, st.finishAck()
		writeErr = w.BufferFrame(&st.tx)
	}
	if err := w.Flush(); writeErr == nil {
		writeErr = err
	}
	if writeErr != nil {
		// The transport died mid-stream; close to unblock the reader.
		conn.Close()
	}
	// With all writes delivered, the reader ends on the server's final
	// ack — or on the server's own failure closing the conn.
	<-st.readDone

	if st.out.final {
		st.done = true
	}
	for _, b := range st.busy {
		st.noteBusy(b)
	}
	st.busy = st.busy[:0]
	return st.out.n > before, nil
}

// readLoop is an exchange's reader goroutine: it decodes server frames
// into st.rx and appends the session frames to the authoritative stream,
// discarding the first skip (a full replay's regenerated duplicates),
// until the final ack or the first read error. Busy frames are control
// frames, not session frames: they are collected in st.busy so the stream
// stays decisions/stats/ack only. Its last act is the readDone signal.
//
//etrain:hotpath
func (st *state) readLoop(skip int) {
	defer func() { st.readDone <- struct{}{} }()
	for {
		if err := st.r.ReadFrame(&st.rx); err != nil {
			return
		}
		switch st.rx.Type {
		case wire.TypeBusy:
			// A mid-stream Busy means the server shed an event and
			// parked the session; the conn is about to close. Control
			// frames never enter the session stream and never count
			// against the skip window.
			st.busy = append(st.busy, st.rx.Busy)
			continue
		case wire.TypeRedirect:
			continue
		}
		if skip > 0 {
			skip--
			continue
		}
		st.out.addFrame(&st.rx)
		if st.rx.Type == wire.TypeAck {
			return
		}
	}
}

// stint is graceful degradation: with the server unreachable, the
// client schedules locally by replaying its whole journal through the
// same server.Replayer the server runs, suppressing the authoritative
// prefix it already holds. Every probeEvery applied events it probes
// the dialer once; a successful probe hands the live connection back to
// the reconnect loop for resume reconciliation. If no probe ever lands
// (or probing has backed off past the journal length), the stint
// completes the session entirely locally.
func (st *state) stint() (net.Conn, error) {
	st.stints++
	var t0 time.Time
	if st.cfg.Clock != nil {
		t0 = st.cfg.Clock()
	}
	defer func() {
		if st.cfg.Clock != nil {
			st.degradedTime += st.cfg.Clock().Sub(t0)
		}
	}()

	localSkip := st.out.n
	seq := 0
	rep, err := server.NewReplayer(st.hello, radio.GalaxyS43G(), func(m wire.Message) error {
		seq++
		if seq > localSkip {
			st.out.addMessage(m)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("client: degraded replay: %w", err)
	}
	every := st.probeEvery
	if st.probeEvery < 1<<30 {
		st.probeEvery *= 2
	}
	countdown := every
	for i := 0; i < st.journalLen(); i++ {
		var frame wire.Message
		if i < len(st.events) {
			frame = st.events[i]
		} else {
			frame = st.finishAck()
		}
		if err := rep.Apply(frame); err != nil {
			return nil, fmt.Errorf("client: degraded replay: %w", err)
		}
		if i+1 > st.maxApplied {
			st.maxApplied = i + 1
			st.degradedEvents++
		}
		if rep.Done() {
			st.done = true
			st.localFinish = true
			return nil, nil
		}
		countdown--
		if countdown <= 0 {
			countdown = every
			conn, err := st.dial()
			if err == nil {
				st.reconnects++
				return conn, nil
			}
		}
	}
	return nil, fmt.Errorf("client: local replay exhausted events before finishing")
}

// outcome assembles the final Outcome from the authoritative stream: the
// Outcome, one exact-size Decisions slice and one array of their Entries
// are its only allocations.
func (st *state) outcome() (*Outcome, error) {
	if st.out.err != nil {
		return nil, st.out.err
	}
	if !st.out.sawStats {
		return nil, fmt.Errorf("client: session stream has no stats snapshot")
	}
	o := &Outcome{
		Stats: st.out.stats,

		Attempts:       st.attempts,
		Reconnects:     st.reconnects,
		Resumes:        st.resumes,
		Replays:        st.replays,
		DegradedStints: st.stints,
		DegradedEvents: st.degradedEvents,
		Degraded:       st.stints > 0,
		DegradedTime:   st.degradedTime,

		CompletedLocally: st.localFinish,

		BusyResponses:   st.busyResponses,
		BudgetExhausted: st.budgetExhausted,
		BusyWait:        st.busyWait,
	}
	if len(st.out.decisions) > 0 {
		o.Decisions = make([]wire.Decision, len(st.out.decisions))
		entries := slices.Clone(st.out.entries)
		from := 0
		for i, d := range st.out.decisions {
			o.Decisions[i] = wire.Decision{Slot: d.slot, Flush: d.flush}
			if d.end > from {
				o.Decisions[i].Entries = entries[from:d.end:d.end]
			}
			from = d.end
		}
	}
	return o, nil
}
