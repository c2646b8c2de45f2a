// Package sim drives the slotted simulation of the paper's §VI: heartbeat
// departures, Poisson cargo arrivals, a scheduling strategy, and a
// serialized radio link feeding the tail-energy accountant.
//
// Each run is deterministic: heartbeat schedules and packet arrivals are
// precomputed, the only randomness (channel-estimator noise) flows from an
// explicit seed.
//
// The engine comes in two forms sharing one code path: Run executes a
// fully precomputed Config to the horizon in one call, and Engine exposes
// the same slot loop incrementally — re-initialised in place by Reset,
// fed events one at a time (AddBeat/AddPacket), executing slots as
// virtual time advances — which is what lets a network session
// (internal/server) drive a device from wire events and still produce
// output byte-identical to Run.
//
// Time advances from event to event: a strategy implementing sched.Waker
// names the next slot at which it could select anything, and the engine
// jumps over the idle slots in between, which transmit nothing.
package sim

import (
	"fmt"
	"math"
	"time"

	"etrain/internal/bandwidth"
	"etrain/internal/heartbeat"
	"etrain/internal/radio"
	"etrain/internal/sched"
	"etrain/internal/stats"
	"etrain/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	// Horizon is the simulated span; the paper uses 7200 s.
	Horizon time.Duration
	// Trains are the heartbeat-sending apps.
	Trains []heartbeat.TrainApp
	// Beats, when non-nil, overrides the trains' generated schedule with an
	// explicit departure table (jittered schedules, offline instances).
	Beats []heartbeat.Beat
	// Packets are the cargo arrivals, sorted by arrival time.
	Packets []workload.Packet
	// Bandwidth drives transmission durations. Required.
	Bandwidth *bandwidth.Trace
	// Power is the radio energy model. Required (use radio.GalaxyS43G())
	// unless Radio is set.
	Power radio.PowerModel
	// Radio, when non-nil, selects the radio generation for energy
	// accounting instead of Power — e.g. radio.LTEDRX() to run the same
	// timeline under the LTE connected-mode DRX machine. Power is ignored
	// while Radio is set.
	Radio radio.Model
	// Strategy decides data transmissions. Required.
	Strategy sched.Strategy
	// Estimator, if set, exposes a noisy channel estimate to the strategy
	// (PerES/eTime). eTrain ignores it. Run uses it as given; a Runner
	// hands every sweep point its own Reseeded copy (see Seed) so
	// concurrent runs never share its stream.
	Estimator *bandwidth.Estimator
	// Seed is the base seed a Runner derives per-run randomness from: the
	// run at control c of the strategy family key f draws estimator noise
	// from randx.Derive(Seed, hash(f), bits(c)). Runs are thereby pure
	// functions of their identity, which is what makes parallel sweeps
	// bit-identical to sequential ones.
	Seed int64
	// CacheKey, when non-empty, names the non-strategy content of this
	// config (trace, workload, power model, horizon, seed) for the
	// Runner's result cache. Two configs sharing a CacheKey are asserted
	// identical by the caller; leave it empty to opt out of caching.
	CacheKey string
}

// model returns the radio model the run's energy is accounted under:
// Radio, or Power while Radio is nil.
func (c *Config) model() radio.Model {
	if c.Radio != nil {
		return c.Radio
	}
	return &c.Power
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Horizon <= 0 {
		return fmt.Errorf("sim: non-positive horizon %v", c.Horizon)
	}
	if c.Bandwidth == nil {
		return fmt.Errorf("sim: no bandwidth trace")
	}
	if c.Strategy == nil {
		return fmt.Errorf("sim: no strategy")
	}
	if c.Radio != nil {
		if err := c.Radio.Validate(); err != nil {
			return err
		}
	} else if err := c.Power.Validate(); err != nil {
		return err
	}
	for _, tr := range c.Trains {
		if err := tr.Validate(); err != nil {
			return err
		}
	}
	for i := 1; i < len(c.Beats); i++ {
		if c.Beats[i].At < c.Beats[i-1].At {
			return fmt.Errorf("sim: beat override not sorted at index %d", i)
		}
	}
	for i := 1; i < len(c.Packets); i++ {
		if c.Packets[i].ArrivedAt < c.Packets[i-1].ArrivedAt {
			return fmt.Errorf("sim: packets not sorted at index %d", i)
		}
	}
	return nil
}

// PacketStat records the fate of one data packet.
type PacketStat struct {
	// ID, App and Size identify the packet.
	ID   int
	App  string
	Size int64
	// ArrivedAt and StartedAt are t_a(u) and t_s(u).
	ArrivedAt time.Duration
	StartedAt time.Duration
	// Delay is StartedAt − ArrivedAt.
	Delay time.Duration
	// Violated reports whether Delay exceeded the packet's deadline.
	Violated bool
	// ForcedFlush marks packets drained unscheduled at the horizon.
	ForcedFlush bool
}

// Result aggregates one run.
type Result struct {
	// Strategy names the strategy that produced the result.
	Strategy string
	// Energy is the radio energy breakdown.
	Energy radio.Energy
	// Timeline is the full transmission record. Energy does not read it:
	// the engine accounts each transmission as it goes.
	Timeline *radio.Timeline
	// Packets holds one entry per data packet, in transmission order.
	Packets []PacketStat
	// HeartbeatCount is the number of heartbeat transmissions.
	HeartbeatCount int
	// ForcedFlushCount is how many packets were still queued at the
	// horizon and force-drained.
	ForcedFlushCount int
}

// NormalizedDelay returns the paper's normalized delay metric: the average
// delay per data packet.
func (r Result) NormalizedDelay() time.Duration {
	if len(r.Packets) == 0 {
		return 0
	}
	var total time.Duration
	for _, p := range r.Packets {
		total += p.Delay
	}
	return total / time.Duration(len(r.Packets))
}

// AppStat summarizes one cargo app's outcomes within a run.
type AppStat struct {
	// Count is the number of packets the app transmitted.
	Count int
	// AvgDelay is the mean delay of the app's packets.
	AvgDelay time.Duration
	// ViolationRatio is the app's own deadline violation ratio.
	ViolationRatio float64
	// Bytes is the total payload transmitted.
	Bytes int64
}

// AppStats breaks the run's packet outcomes down by cargo app.
func (r Result) AppStats() map[string]AppStat {
	type acc struct {
		count    int
		delays   time.Duration
		violated int
		bytes    int64
	}
	accs := make(map[string]*acc)
	for _, p := range r.Packets {
		a, ok := accs[p.App]
		if !ok {
			a = &acc{}
			accs[p.App] = a
		}
		a.count++
		a.delays += p.Delay
		a.bytes += p.Size
		if p.Violated {
			a.violated++
		}
	}
	out := make(map[string]AppStat, len(accs))
	for app, a := range accs {
		stat := AppStat{Count: a.count, Bytes: a.bytes}
		if a.count > 0 {
			stat.AvgDelay = a.delays / time.Duration(a.count)
			stat.ViolationRatio = float64(a.violated) / float64(a.count)
		}
		out[app] = stat
	}
	return out
}

// DelayPercentile returns the p-th percentile (0–100) of per-packet delay.
func (r Result) DelayPercentile(p float64) time.Duration {
	if len(r.Packets) == 0 {
		return 0
	}
	delays := make([]float64, len(r.Packets))
	for i, pkt := range r.Packets {
		delays[i] = pkt.Delay.Seconds()
	}
	v, err := stats.Percentile(delays, p)
	if err != nil {
		return 0
	}
	return time.Duration(v * float64(time.Second))
}

// DeadlineViolationRatio returns the fraction of packets transmitted after
// their deadline.
func (r Result) DeadlineViolationRatio() float64 {
	if len(r.Packets) == 0 {
		return 0
	}
	violated := 0
	for _, p := range r.Packets {
		if p.Violated {
			violated++
		}
	}
	return float64(violated) / float64(len(r.Packets))
}

// SlotResult reports what one executed slot transmitted. Data is the
// engine's per-slot buffer, valid until the next slot executes. Slots the
// engine skips as idle transmit nothing and produce no SlotResult.
type SlotResult struct {
	// Slot is the slot's start instant (the horizon for the final flush).
	Slot time.Duration
	// Flush marks the horizon drain of still-queued packets.
	Flush bool
	// Data lists the data packets transmitted by this slot, in
	// transmission order.
	Data []PacketStat
	// Heartbeats counts the slot's heartbeat transmissions.
	Heartbeats int
}

// Engine is the incremental form of the simulation: the exact slot loop of
// Run, exposed as an event-fed state machine. Reset positions it at slot
// zero of a config; events enter through AddBeat and AddPacket in
// non-decreasing time order; Advance executes every slot whose inputs are
// complete; Finish runs the remaining slots to the horizon, drains the
// queues and accounts energy, and Metrics summarizes the run.
//
// The loop skips idle slots when the strategy implements sched.Waker.
// Before each slot it jumps to the earliest of the strategy's wake slot,
// the slot holding the next heartbeat and the slot where the loop stops
// anyway. A slot where only an arrival becomes visible is not stepped: the
// engine ingests the arrival and asks the strategy again from there. The
// queues cannot change and no train departs between two of these points,
// so the strategy would have selected nothing at every slot jumped over:
// skipping changes no transmission. Strategies without Waker execute every
// slot.
//
// Run is implemented on top of Engine, so a device driven incrementally —
// e.g. from decoded wire frames by internal/server — produces decisions
// and metrics byte-identical to the same device run in one Run call.
type Engine struct {
	cfg        Config
	slot       time.Duration
	queues     *sched.Queues
	waker      sched.Waker // cfg.Strategy as a Waker; nil steps every slot
	energy     radio.EnergyFold[radio.Model]
	res        *Result
	beats      []heartbeat.Beat
	packets    []workload.Packet
	nextBeat   int
	nextPacket int
	slotStart  time.Duration
	busyUntil  time.Duration
	finished   bool

	// summaryOnly makes recordData fold each data packet into summary
	// instead of appending it to Result.Packets, and leaves the result
	// without a Timeline (RunMetrics, Reset).
	summaryOnly bool
	summary     packetSummary
	// ownEvents marks beats and packets as the engine's own buffers,
	// which AddBeat and AddPacket grow and the next Reset refills
	// (Reset), rather than the caller's Config slices (RunMetrics, Run).
	ownEvents bool
	// slotData holds the data packets the current slot transmitted, for
	// OnSlot; step and the horizon flush empty it.
	slotData []PacketStat

	// ctx is the slot context handed to the strategy, reused across slots
	// so the hot loop performs no per-slot allocation. Strategies must not
	// retain it past Schedule (the sched.Strategy contract).
	ctx sched.SlotContext
	// estimateAt is the instant the shared estimator closure in ctx reads;
	// step updates it instead of allocating a fresh closure per slot.
	estimateAt time.Duration

	// OnSlot, when non-nil, observes every executed slot (and the final
	// flush) as it happens; slots skipped as idle are not reported. Run
	// leaves it nil; a server session uses it to turn slot outcomes into
	// Decision frames.
	OnSlot func(SlotResult)
}

// Reset validates cfg and re-initialises e in place at its slot zero for
// incremental use. The engine runs summary-only, as RunMetrics does: it
// keeps no per-packet record and no timeline, so Finish's Result carries
// only the energy and the counts, and Metrics summarizes the run. That
// Result is the engine's own, overwritten by its next summary-only run.
// Config.Packets and Config.Beats (or the Trains' merged schedule) are
// copied into the engine's own event buffers, which AddPacket and AddBeat
// then extend as long as time order is preserved. Reset keeps the queues,
// the event and slot buffers and OnSlot of an earlier run, so a caller
// that drives many sessions in turn, such as a pooled server session,
// allocates nothing for them once they have grown. Any earlier run of e
// is abandoned.
func (e *Engine) Reset(cfg Config) error {
	return e.init(cfg, true, true)
}

// init validates cfg and positions e at its slot zero. With summaryOnly
// the engine keeps no per-packet record and no timeline, only the
// packetSummary and energy Metrics reads; with ownEvents it copies cfg's
// events into its own buffers (Reset) instead of reading cfg's slices.
// init keeps the queues of an earlier run, reset, OnSlot, the slot
// buffer, the event buffers of an earlier Reset and the Result of an
// earlier summary-only run, which never leaves the engine; everything
// else starts afresh.
func (e *Engine) init(cfg Config, summaryOnly, ownEvents bool) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	beats, packets := cfg.Beats, cfg.Packets
	if beats == nil {
		beats = heartbeat.Merge(cfg.Trains, cfg.Horizon, nil)
	}
	if ownEvents {
		var beatBuf []heartbeat.Beat
		var packetBuf []workload.Packet
		if e.ownEvents {
			beatBuf, packetBuf = e.beats[:0], e.packets[:0]
		}
		beats = append(beatBuf, beats...)
		packets = append(packetBuf, packets...)
	}
	slot := cfg.Strategy.SlotLength()
	if slot <= 0 {
		slot = time.Second
	}
	var res *Result
	if summaryOnly && e.summaryOnly {
		res = e.res
		*res = Result{Strategy: cfg.Strategy.Name()}
	} else {
		res = &Result{Strategy: cfg.Strategy.Name()}
	}
	if !summaryOnly {
		// Preallocate the engine's steady state from the config: every
		// beat and packet becomes at most one transmission, so sizing the
		// timeline and the result's packet record up front keeps the slot
		// loop free of growth reallocations.
		res.Timeline = &radio.Timeline{}
		res.Timeline.Reserve(len(beats) + len(cfg.Packets))
		res.Packets = make([]PacketStat, 0, len(cfg.Packets))
	}
	queues := e.queues
	if queues == nil {
		queues = sched.NewQueues()
	} else {
		queues.Reset()
	}
	*e = Engine{
		cfg:         cfg,
		slot:        slot,
		queues:      queues,
		res:         res,
		beats:       beats,
		packets:     packets,
		summaryOnly: summaryOnly,
		ownEvents:   ownEvents,
		slotData:    e.slotData[:0],
		OnSlot:      e.OnSlot,
	}
	e.energy = radio.NewEnergyFold(e.cfg.model())
	e.waker, _ = cfg.Strategy.(sched.Waker)
	e.ctx = sched.SlotContext{SlotLength: slot, Queues: e.queues}
	if cfg.Estimator != nil {
		// One closure for the run; step repoints estimateAt. Strategies
		// read MeanBandwidth only next to an estimate, so the pass over
		// the trace is made only here.
		e.ctx.EstimateBandwidth = func() float64 { return e.cfg.Estimator.Estimate(e.estimateAt) }
		e.ctx.MeanBandwidth = cfg.Bandwidth.Mean()
	}
	return nil
}

// AddBeat appends one heartbeat departure. Beats must arrive in
// non-decreasing time order and must not predate the next unexecuted slot
// — a beat the batch run would already have consumed cannot be replayed.
//
//etrain:hotpath
func (e *Engine) AddBeat(b heartbeat.Beat) error {
	if e.finished {
		return fmt.Errorf("sim: beat after Finish")
	}
	if n := len(e.beats); n > e.nextBeat && b.At < e.beats[n-1].At {
		return fmt.Errorf("sim: beat at %v arrives after beat at %v", b.At, e.beats[n-1].At)
	}
	if b.At < e.slotStart {
		return fmt.Errorf("sim: stale beat at %v; slot %v already executed", b.At, e.slotStart)
	}
	e.beats = append(e.beats, b)
	return nil
}

// AddPacket appends one cargo arrival. Packets must arrive in
// non-decreasing time order and must not predate the next unexecuted slot.
//
//etrain:hotpath
func (e *Engine) AddPacket(p workload.Packet) error {
	if e.finished {
		return fmt.Errorf("sim: packet after Finish")
	}
	if n := len(e.packets); n > e.nextPacket && p.ArrivedAt < e.packets[n-1].ArrivedAt {
		return fmt.Errorf("sim: packet at %v arrives after packet at %v", p.ArrivedAt, e.packets[n-1].ArrivedAt)
	}
	if p.ArrivedAt < e.slotStart {
		return fmt.Errorf("sim: stale packet at %v; slot %v already executed", p.ArrivedAt, e.slotStart)
	}
	e.packets = append(e.packets, p)
	return nil
}

// Advance executes every slot that ends at or before upTo (never past the
// horizon). The caller guarantees all events up to upTo have been added;
// an event stream fed in time order satisfies this by advancing to each
// event's instant after adding it.
//
//etrain:hotpath
func (e *Engine) Advance(upTo time.Duration) error {
	if e.finished {
		return fmt.Errorf("sim: advance after Finish")
	}
	return e.run(upTo)
}

// Finish executes the remaining slots to the horizon, force-drains
// whatever is still queued, accounts energy, and returns the completed
// result. The result is byte-identical to Run on the same total event set.
func (e *Engine) Finish() (*Result, error) {
	if e.finished {
		return nil, fmt.Errorf("sim: Finish called twice")
	}
	if err := e.run(math.MaxInt64); err != nil {
		return nil, err
	}

	// Horizon flush: whatever is still queued is drained so every packet is
	// accounted for. (End effects only; counted separately.)
	for e.nextPacket < len(e.packets) {
		e.queues.Add(e.packets[e.nextPacket])
		e.nextPacket++
	}
	e.slotData = e.slotData[:0]
	for {
		oldest, ok := e.queues.Oldest()
		if !ok {
			break
		}
		p, ok := e.queues.PopByID(oldest.App, oldest.ID)
		if !ok {
			break
		}
		start, err := e.transmit(e.cfg.Horizon, p.Size, radio.TxData, p.App)
		if err != nil {
			return nil, err
		}
		e.recordData(p, start, true)
		e.res.ForcedFlushCount++
	}
	if e.OnSlot != nil && len(e.slotData) > 0 {
		e.OnSlot(SlotResult{Slot: e.cfg.Horizon, Flush: true, Data: e.slotData})
	}

	e.res.Energy = e.energy.Energy(e.cfg.Horizon + e.cfg.model().TailTime())
	e.finished = true
	return e.res, nil
}

// transmit serializes one transmission on the radio link, queueing behind
// the current one if the link is busy.
//
//etrain:hotpath
func (e *Engine) transmit(at time.Duration, size int64, kind radio.TxKind, app string) (time.Duration, error) {
	start := at
	if e.busyUntil > start {
		start = e.busyUntil
	}
	txTime := e.cfg.Bandwidth.TransmitTime(start, size)
	tx := radio.Transmission{Start: start, TxTime: txTime, Size: size, Kind: kind, App: app}
	if err := e.energy.Append(tx); err != nil {
		return 0, err
	}
	if e.res.Timeline != nil {
		if err := e.res.Timeline.Append(tx); err != nil {
			return 0, err
		}
	}
	e.busyUntil = start + txTime
	return start, nil
}

// recordData appends one data packet's fate to the result, or folds it
// into the summary of a summary-only engine, and, for OnSlot, to the slot
// buffer.
//
//etrain:hotpath
func (e *Engine) recordData(p workload.Packet, start time.Duration, forced bool) {
	stat := PacketStat{
		ID: p.ID, App: p.App, Size: p.Size,
		ArrivedAt: p.ArrivedAt, StartedAt: start,
		Delay:       start - p.ArrivedAt,
		Violated:    p.DeadlineViolated(start),
		ForcedFlush: forced,
	}
	if e.OnSlot != nil {
		e.slotData = append(e.slotData, stat)
	}
	if e.summaryOnly {
		e.summary.add(stat)
		return
	}
	e.res.Packets = append(e.res.Packets, stat)
}

// run executes every slot that starts before the horizon and ends at or
// before upTo, jumping over the slots the strategy leaves idle.
//
//etrain:hotpath
func (e *Engine) run(upTo time.Duration) error {
	// end is the first slot start at which the loop stops: the slot grid
	// is slotStart + i·slot, so count the slots that start before the
	// horizon and those that end by upTo.
	n := (e.cfg.Horizon - e.slotStart + e.slot - 1) / e.slot
	if m := (upTo - e.slotStart) / e.slot; m < n {
		n = m
	}
	end := e.slotStart + max(n, 0)*e.slot
	for e.slotStart < end {
		if e.waker != nil {
			e.skipIdle(end)
			if e.slotStart >= end {
				break
			}
		}
		if err := e.step(); err != nil {
			return err
		}
	}
	return nil
}

// skipIdle moves slotStart, at most to end, to the next slot the engine
// steps: the strategy's wake slot, the slot holding the next beat, or end.
// Each NextWake call covers slots that see one set of queues and no
// heartbeat, and rules out every slot it passes over.
//
// A call ends at the first slot start after the next arrival, where that
// arrival becomes visible. When NextWake finds nothing before it, the
// engine does not step that slot to ask the strategy: it ingests the
// arrival and calls NextWake again from that slot, the slot included. A
// strategy that could select there is named there, and one that could
// not would have selected nothing and left the queues as they were. A
// slot reached through NextWake is marked Woken.
//
//etrain:hotpath
func (e *Engine) skipIdle(end time.Duration) {
	e.ctx.Woken = false
	for {
		e.ingest()
		next := end
		if e.nextBeat < len(e.beats) {
			// The slot [s, s+slot) holding the next beat; a beat that is
			// already due gives a slot at or before this one.
			next = min(next, e.slotStart+(e.beats[e.nextBeat].At-e.slotStart)/e.slot*e.slot)
		}
		stop := next
		if e.nextPacket < len(e.packets) {
			// ingest left only arrivals at or after slotStart: the first
			// slot start past one is where it becomes visible.
			at := e.packets[e.nextPacket].ArrivedAt
			stop = min(stop, e.slotStart+((at-e.slotStart)/e.slot+1)*e.slot)
		}
		if stop <= e.slotStart {
			return
		}
		wake := e.waker.NextWake(e.queues, e.slotStart, stop, e.slot)
		if wake < stop {
			e.slotStart = wake
			e.ctx.Woken = true
			return
		}
		e.slotStart = stop
		if stop == next {
			return
		}
	}
}

// ingest moves into the queues every arrival visible at the current slot:
// packets generated in earlier slots (the paper's A_i(t) arrives by the
// end of slot t).
//
//etrain:hotpath
func (e *Engine) ingest() {
	for e.nextPacket < len(e.packets) && e.packets[e.nextPacket].ArrivedAt < e.slotStart {
		e.queues.Add(e.packets[e.nextPacket])
		e.nextPacket++
	}
}

// step executes the slot starting at e.slotStart: ingest arrivals, collect
// departures, ask the strategy, and put beats and the selection on the
// serialized link.
//
//etrain:hotpath
func (e *Engine) step() error {
	slotStart := e.slotStart
	slotEnd := slotStart + e.slot
	e.ingest()

	// Train departures within this slot.
	beatEnd := e.nextBeat
	for beatEnd < len(e.beats) && e.beats[beatEnd].At < slotEnd {
		beatEnd++
	}
	slotBeats := e.beats[e.nextBeat:beatEnd]
	e.nextBeat = beatEnd

	// The slot context is reused across slots; only the slot-varying
	// fields are rewritten here (see init for the fixed ones).
	e.ctx.Now = slotStart
	e.ctx.HeartbeatNow = len(slotBeats) > 0
	e.ctx.Beats = slotBeats
	e.estimateAt = slotStart

	// Q*(t) goes to the paper's FIFO transmission queue Q_TX at the slot
	// start, and its head-of-line packet transmits whenever the radio is
	// free (§IV). Q_TX drains within the slot, so the link order is:
	// heartbeats departing at or before the slot start (data rides their
	// tail), then the selection in order, then the slot's later beats.
	selected := e.cfg.Strategy.Schedule(&e.ctx)
	e.slotData = e.slotData[:0]
	i := 0
	for ; i < len(slotBeats) && slotBeats[i].At <= slotStart; i++ {
		if err := e.transmitBeat(slotBeats[i]); err != nil {
			return err
		}
	}
	for _, p := range selected {
		start, err := e.transmit(slotStart, p.Size, radio.TxData, p.App)
		if err != nil {
			return err
		}
		e.recordData(p, start, false)
	}
	for ; i < len(slotBeats); i++ {
		if err := e.transmitBeat(slotBeats[i]); err != nil {
			return err
		}
	}
	if e.OnSlot != nil {
		e.OnSlot(SlotResult{Slot: slotStart, Data: e.slotData, Heartbeats: len(slotBeats)})
	}
	e.slotStart = slotEnd
	return nil
}

// transmitBeat puts one heartbeat on the link at its departure instant.
//
//etrain:hotpath
func (e *Engine) transmitBeat(b heartbeat.Beat) error {
	if _, err := e.transmit(b.At, b.Size, radio.TxHeartbeat, b.App); err != nil {
		return err
	}
	e.res.HeartbeatCount++
	return nil
}

// Run executes the simulation in one call: the whole Config is precomputed,
// so the engine is initialised and finished immediately, keeping every
// transmission in the Result's Timeline and every data packet's fate in
// its Packets.
func Run(cfg Config) (*Result, error) {
	e := &Engine{}
	if err := e.init(cfg, false, false); err != nil {
		return nil, err
	}
	return e.Finish()
}
