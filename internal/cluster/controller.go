// Package cluster scales the etraind service layer past one process: a
// control plane (Controller) registers N shard servers, tracks their
// health through periodic ShardStats beats that carry each shard's
// counters as cargo — the cluster borrowing the paper's
// heartbeat-piggybacking premise for its own liveness channel — and
// publishes a RouteTable whose consistent-hash ring (Ring) routes every
// device to a shard as a pure function of the member set. Shard death or
// drain bumps the route epoch; in-flight sessions recover through the
// token-authenticated Resume path (or a full Hello replay on the new
// owner), so decisions are never lost: the session stream is
// deterministic, and the replacement shard regenerates exactly the frames
// the dead one would have sent (DESIGN.md §13).
//
// The package follows the service layer's clock discipline: nothing here
// reads wall time. Health timeouts and beat cadence take effect only
// when the daemon injects a Clock/Sleep at the process boundary, so the
// whole control plane is drivable from deterministic tests.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"etrain/internal/wire"
)

// Defaults for the zero ControllerConfig.
const (
	// DefaultBeatTimeout is how stale a shard's last beat may be before
	// Sweep declares it dead (needs a Clock).
	DefaultBeatTimeout = 5 * time.Second
	// DefaultRejoinGrace is how long a restored controller shields
	// phantom members from Sweep while their shards re-register.
	DefaultRejoinGrace = 2 * DefaultBeatTimeout
)

// ErrControllerClosed reports that Serve stopped because Shutdown began.
var ErrControllerClosed = errors.New("cluster: controller closed")

// ControllerConfig parameterizes a Controller. The zero value serves
// with defaults and no wall clock (health expiry disabled; conn loss
// still detects death immediately).
type ControllerConfig struct {
	// RingSeed roots the routing ring's hashes; every client sees it in
	// the RouteTable and builds the identical ring.
	RingSeed int64
	// Vnodes is the ring's virtual-node count per shard (DefaultVnodes if
	// zero).
	Vnodes int
	// BeatTimeout is how stale a shard's beat may grow before Sweep
	// removes it (DefaultBeatTimeout if zero; needs a Clock).
	BeatTimeout time.Duration
	// Clock supplies wall time for beat staleness; nil disables
	// Sweep-based expiry and keeps the controller deterministic.
	Clock func() time.Time
	// Restore, when non-nil, rebuilds the controller from a crash
	// snapshot: members come back as phantoms (no conn) at the
	// snapshot's exact epoch and ring parameters, and Sweep holds off
	// for RejoinGrace so shards can re-register without an epoch storm.
	// RingSeed and Vnodes from the snapshot override the config's.
	Restore *ControllerSnapshot
	// RejoinGrace bounds the post-restore re-registration window
	// (DefaultRejoinGrace if zero; only meaningful with Restore and a
	// Clock — without a Clock, Sweep is a no-op anyway).
	RejoinGrace time.Duration
	// Logf, when non-nil, receives membership and error reports.
	Logf func(format string, args ...any)
}

// shardState is one registered shard.
type shardState struct {
	id       uint64
	addr     string
	draining bool

	conn net.Conn
	pu   pushUnit

	beats    uint64
	lastBeat time.Time
	hasBeat  bool
	stats    wire.ShardStats // the latest beat; valid once beats > 0
}

// watcher is one route-table subscriber (a load generator or admin
// tool).
type watcher struct {
	conn net.Conn
	pu   pushUnit
}

// pushUnit serializes route-table pushes onto one peer connection and
// drops stale tables: two concurrent epoch bumps may race to the peer,
// and the epoch guard keeps an older table from overwriting a newer one.
type pushUnit struct {
	mu     sync.Mutex
	w      *wire.Writer
	pushed uint64 // highest epoch written
}

// push writes t unless a newer table already went out. Write errors are
// returned for logging but not acted on: a dead peer is detected by its
// own read loop.
func (p *pushUnit) push(t wire.RouteTable) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t.Epoch <= p.pushed {
		return nil
	}
	p.pushed = t.Epoch
	return p.w.Write(t)
}

// Controller is the cluster's control plane: shard registry, health
// tracking, route-table publication and fleet-wide counter aggregation.
type Controller struct {
	cfg ControllerConfig

	mu        sync.Mutex
	closed    bool
	listeners map[net.Listener]struct{}
	shards    map[uint64]*shardState
	watchers  map[*watcher]struct{}
	epoch     uint64
	table     wire.RouteTable
	deaths    uint64 // shards removed by conn loss or beat expiry
	drains    uint64 // shards removed by an explicit Drain

	// graceUntil suspends Sweep after a snapshot restore: phantom
	// members must outlive the re-registration window even though they
	// cannot beat.
	graceUntil time.Time

	wg sync.WaitGroup
}

// NewController returns a controller with normalized configuration. The
// route table starts at epoch 1 with no members, or — given a Restore
// snapshot — at the snapshot's exact epoch with its member set restored
// as phantoms awaiting re-registration.
func NewController(cfg ControllerConfig) *Controller {
	if cfg.Vnodes <= 0 {
		cfg.Vnodes = DefaultVnodes
	}
	if cfg.BeatTimeout <= 0 {
		cfg.BeatTimeout = DefaultBeatTimeout
	}
	if cfg.RejoinGrace <= 0 {
		cfg.RejoinGrace = DefaultRejoinGrace
	}
	c := &Controller{
		cfg:       cfg,
		listeners: make(map[net.Listener]struct{}),
		shards:    make(map[uint64]*shardState),
		watchers:  make(map[*watcher]struct{}),
	}
	c.mu.Lock()
	if snap := cfg.Restore; snap != nil {
		c.restoreLocked(*snap)
	}
	c.rebuildLocked()
	c.mu.Unlock()
	return c
}

// restoreLocked installs a crash snapshot: ring parameters and removal
// counters come back exactly, members come back as phantoms (conn nil,
// liveness stamped at restore time so post-grace Sweep expires the ones
// that never return), and the epoch is positioned one below the
// snapshot's so the constructor's rebuild republishes the identical
// table at exactly the snapshot epoch — no storm, no regression.
func (c *Controller) restoreLocked(snap ControllerSnapshot) {
	c.cfg.RingSeed = snap.RingSeed
	c.cfg.Vnodes = snap.Vnodes
	c.deaths = snap.Deaths
	c.drains = snap.Drains
	if snap.Epoch > 0 {
		c.epoch = snap.Epoch - 1
	}
	for _, s := range snap.Shards {
		sh := &shardState{id: s.ID, addr: s.Addr, draining: s.Draining}
		if c.cfg.Clock != nil {
			sh.lastBeat = c.cfg.Clock() // restore counts as provisional liveness
			sh.hasBeat = true
		}
		c.shards[s.ID] = sh
	}
	if c.cfg.Clock != nil {
		c.graceUntil = c.cfg.Clock().Add(c.cfg.RejoinGrace)
	}
}

// Serve accepts control connections from l until Shutdown, then returns
// ErrControllerClosed. Each connection declares its role with its first
// frame: ShardHello registers a shard, Ack subscribes a watcher.
func (c *Controller) Serve(l net.Listener) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		l.Close()
		return ErrControllerClosed
	}
	c.listeners[l] = struct{}{}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.listeners, l)
		c.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return ErrControllerClosed
			}
			return err
		}
		c.wg.Add(1)
		go func(conn net.Conn) {
			defer c.wg.Done()
			if err := c.handleConn(conn); err != nil {
				c.logf("control conn %v: %v", conn.RemoteAddr(), err)
			}
		}(conn)
	}
}

// Shutdown closes the listeners and every control connection, then waits
// for the connection handlers to unwind.
func (c *Controller) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	c.closed = true
	for l := range c.listeners {
		l.Close()
	}
	for _, sh := range c.shards {
		if sh.conn != nil {
			sh.conn.Close()
		}
	}
	for w := range c.watchers {
		w.conn.Close()
	}
	c.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		c.wg.Wait()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// handleConn speaks one control connection: role dispatch on the first
// frame, then the role's read loop. It closes conn before returning.
func (c *Controller) handleConn(conn net.Conn) error {
	defer conn.Close()
	r := wire.NewReader(conn)
	first, err := r.Next()
	if err != nil {
		return fmt.Errorf("cluster: reading control hello: %w", err)
	}
	switch m := first.(type) {
	case wire.ShardHello:
		return c.shardLoop(conn, r, m)
	case wire.Ack:
		return c.watchLoop(conn, r, m.Seq)
	default:
		return fmt.Errorf("cluster: first control frame is %s, want shard_hello or ack", first.MsgType())
	}
}

// shardLoop registers the shard and consumes its beat stream until
// the connection dies; conn loss removes the shard from the ring
// immediately (a SIGKILLed shard is detected here, not by beat expiry).
func (c *Controller) shardLoop(conn net.Conn, r *wire.Reader, h wire.ShardHello) error {
	sh := c.register(conn, h)
	if sh == nil {
		return fmt.Errorf("cluster: shard %d rejected: controller closed", h.ShardID)
	}
	c.logf("shard %d registered at %s", h.ShardID, h.Addr)
	if err := sh.pu.push(c.Table()); err != nil {
		c.logf("shard %d: route push: %v", h.ShardID, err)
	}
	for {
		m, err := r.Next()
		if err != nil {
			c.dropShard(sh, "connection lost")
			return nil // conn loss is a membership event, not a handler error
		}
		switch v := m.(type) {
		case wire.ShardStats:
			c.noteBeat(sh, v)
		case wire.Ack:
			// A shard may ack pushed tables; nothing to do.
		default:
			c.dropShard(sh, "protocol error")
			return fmt.Errorf("cluster: shard %d sent %s on control conn", sh.id, m.MsgType())
		}
	}
}

// watchLoop subscribes a client to route-table pushes. sinceEpoch is the
// newest epoch the client already holds; the current table is pushed
// immediately when newer. Subsequent Ack frames re-request a push (a
// poll), anything else is a protocol error.
func (c *Controller) watchLoop(conn net.Conn, r *wire.Reader, sinceEpoch uint64) error {
	w := &watcher{conn: conn}
	w.pu.w = wire.NewWriter(conn)
	w.pu.pushed = sinceEpoch
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.watchers[w] = struct{}{}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.watchers, w)
		c.mu.Unlock()
	}()
	if err := w.pu.push(c.Table()); err != nil {
		return nil // dead watcher; its read below confirms
	}
	for {
		m, err := r.Next()
		if err != nil {
			return nil // watcher went away
		}
		if _, ok := m.(wire.Ack); !ok {
			return fmt.Errorf("cluster: watcher sent %s on control conn", m.MsgType())
		}
		// An explicit poll: push unconditionally relative to what this
		// connection last got.
		if err := w.pu.push(c.Table()); err != nil {
			return nil
		}
	}
}

// register adds (or re-registers) a shard. A new connection for an
// already-known shard ID supersedes the old one — a restarted shard
// re-registers before its old conn's loss is processed — and the stale
// conn is closed so its loop unwinds without dropping the member.
func (c *Controller) register(conn net.Conn, h wire.ShardHello) *shardState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	var staleConn net.Conn
	sh := &shardState{id: h.ShardID, addr: h.Addr, conn: conn}
	if old, ok := c.shards[h.ShardID]; ok {
		if old.conn != nil && old.conn != conn {
			staleConn = old.conn
		}
		// An operator's drain decision survives the shard's reconnect
		// (and a controller restart, via the snapshot): only an explicit
		// un-drain — which doesn't exist yet — may clear it.
		sh.draining = old.draining
	}
	sh.pu.w = wire.NewWriter(conn)
	if c.cfg.Clock != nil {
		sh.lastBeat = c.cfg.Clock() // registration counts as liveness
		sh.hasBeat = true
	}
	c.shards[h.ShardID] = sh
	c.rebuildLocked()
	if staleConn != nil {
		staleConn.Close()
	}
	return sh
}

// dropShard removes sh from the registry unless a re-registration
// already superseded it, rebuilding the ring on a real removal.
func (c *Controller) dropShard(sh *shardState, why string) {
	c.mu.Lock()
	cur, ok := c.shards[sh.id]
	if !ok || cur != sh {
		c.mu.Unlock()
		return // superseded: the newer registration owns the ID now
	}
	delete(c.shards, sh.id)
	c.deaths++
	c.rebuildLocked()
	c.mu.Unlock()
	c.logf("shard %d removed: %s", sh.id, why)
}

// noteBeat records one beat and the counter snapshot it carries.
func (c *Controller) noteBeat(sh *shardState, s wire.ShardStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh.stats = s
	sh.beats++
	if c.cfg.Clock != nil {
		sh.lastBeat = c.cfg.Clock()
		sh.hasBeat = true
	}
}

// Sweep removes shards whose last beat is older than BeatTimeout. It
// needs a Clock; without one it is a no-op. The daemon calls it on a
// timer — the controller itself never schedules.
func (c *Controller) Sweep() {
	if c.cfg.Clock == nil {
		return
	}
	now := c.cfg.Clock()
	c.mu.Lock()
	if now.Before(c.graceUntil) {
		// Post-restore grace: phantoms can't beat yet, and expiring them
		// now would shred the recovered table before shards re-attach.
		c.mu.Unlock()
		return
	}
	var expired []*shardState
	for _, sh := range c.shards {
		if sh.hasBeat && now.Sub(sh.lastBeat) > c.cfg.BeatTimeout {
			expired = append(expired, sh)
		}
	}
	for _, sh := range expired {
		delete(c.shards, sh.id)
		c.deaths++
		if sh.conn != nil {
			sh.conn.Close()
		}
	}
	if len(expired) > 0 {
		c.rebuildLocked()
	}
	c.mu.Unlock()
	for _, sh := range expired {
		c.logf("shard %d removed: beat timeout", sh.id)
	}
}

// Drain removes shardID from the routing ring without touching its
// process: new devices route elsewhere while the shard finishes its
// in-flight sessions. The shard stays registered (health and stats keep
// flowing) but is excluded from every future table.
func (c *Controller) Drain(shardID uint64) error {
	c.mu.Lock()
	sh, ok := c.shards[shardID]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: drain: no shard %d", shardID)
	}
	if sh.draining {
		c.mu.Unlock()
		return nil
	}
	sh.draining = true
	c.drains++
	c.rebuildLocked()
	c.mu.Unlock()
	c.logf("shard %d draining", shardID)
	return nil
}

// Table returns the current route table.
func (c *Controller) Table() wire.RouteTable {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.table
}

// rebuildLocked recomputes the route table from the live, non-draining
// member set, bumps the epoch, and schedules a push to every peer. The
// pushes run on their own goroutines (joined by the controller's
// WaitGroup) so a slow peer cannot stall the registry lock.
//
// A rebuild whose entries, seed and vnodes match the published table is
// skipped outright: a shard re-attaching to a restored phantom (or
// superseding its own flapped conn) must not storm the fleet with
// content-identical epochs. The epoch>0 guard keeps the constructor's
// first build — against the zero table — from being skipped.
func (c *Controller) rebuildLocked() {
	ids := make([]uint64, 0, len(c.shards))
	for id, sh := range c.shards {
		if !sh.draining {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	entries := make([]wire.RouteEntry, 0, len(ids))
	for _, id := range ids {
		entries = append(entries, wire.RouteEntry{ShardID: id, Addr: c.shards[id].addr})
	}
	if c.epoch > 0 && c.sameTableLocked(entries) {
		return
	}
	c.epoch++
	c.table = wire.RouteTable{
		Epoch:  c.epoch,
		Seed:   c.cfg.RingSeed,
		Vnodes: uint32(c.cfg.Vnodes),
		Shards: entries,
	}
	t := c.table
	units := make([]*pushUnit, 0, len(c.shards)+len(c.watchers))
	for _, sh := range c.shards {
		if sh.conn != nil {
			units = append(units, &sh.pu)
		}
	}
	for w := range c.watchers {
		units = append(units, &w.pu)
	}
	for _, pu := range units {
		c.wg.Add(1)
		go func(pu *pushUnit) {
			defer c.wg.Done()
			if err := pu.push(t); err != nil {
				c.logf("route push: %v", err)
			}
		}(pu)
	}
}

// sameTableLocked reports whether the published table already carries
// exactly these entries under the current ring parameters.
func (c *Controller) sameTableLocked(entries []wire.RouteEntry) bool {
	t := c.table
	if t.Seed != c.cfg.RingSeed || int(t.Vnodes) != c.cfg.Vnodes || len(t.Shards) != len(entries) {
		return false
	}
	for i := range entries {
		if t.Shards[i] != entries[i] {
			return false
		}
	}
	return true
}

func (c *Controller) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}
