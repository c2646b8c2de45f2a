package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"etrain/internal/wire"
)

// ErrRouterClosed reports a lookup or refresh on a closed Router.
var ErrRouterClosed = errors.New("cluster: router closed")

// RouterConfig parameterizes a client-side route-table subscriber.
type RouterConfig struct {
	// DialControl opens a control connection to the controller. Required.
	DialControl func() (net.Conn, error)
	// DialShard opens a session connection to a shard's advertised
	// address. Required for Dialer; lookups work without it.
	DialShard func(addr string) (net.Conn, error)
	// Sleep paces control-connection redials: it is handed
	// DefaultBeatEvery between attempts. Nil retries immediately (tests);
	// real deployments should pass a sleeper.
	Sleep func(time.Duration)
	// Logf, when non-nil, receives connection reports.
	Logf func(format string, args ...any)
}

// Router subscribes to the controller's route table and turns it into
// per-device dialers for client.Run. One background reader holds the
// watcher connection, applies pushed tables (newest epoch wins), and
// redials when the controller bounces; Close joins it.
//
// Failover shape: when a shard dies, in-flight dials to its address fail
// and the client backs off; the controller drops the member on control-
// conn loss and pushes a fresh table; the next dial routes the device to
// its new owner, reported as moved=true so the client skips the Resume
// handshake (the new shard never parked this session) and goes straight
// to a full Hello replay. The Poke path accelerates the table refresh —
// epoch-gated, so a thousand clients hitting one dead shard cause one
// poll, not a thundering herd.
type Router struct {
	cfg RouterConfig

	mu     sync.Mutex
	cond   *sync.Cond
	table  wire.RouteTable
	ring   *Ring
	addrs  map[uint64]string
	conn   net.Conn // current watcher conn (reader-owned)
	w      *wire.Writer
	closed bool
	polled uint64 // highest epoch a Poke already polled at

	// wmu serializes frame writes on the watcher conn: the subscribe
	// handshake and any number of concurrent Pokes share a wire.Writer.
	wmu sync.Mutex

	readerDone chan struct{}
}

// NewRouter connects to the controller, waits for the first route table,
// and starts the background reader.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.DialControl == nil {
		return nil, fmt.Errorf("cluster: router: DialControl is required")
	}
	rt := &Router{cfg: cfg, readerDone: make(chan struct{})}
	rt.cond = sync.NewCond(&rt.mu)
	conn, err := rt.subscribe(0)
	if err != nil {
		return nil, err
	}
	go rt.readLoop(conn)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for rt.table.Epoch == 0 && !rt.closed {
		rt.cond.Wait()
	}
	if rt.closed {
		return nil, ErrRouterClosed
	}
	return rt, nil
}

// subscribe dials the controller and sends the watcher handshake: an Ack
// carrying the newest epoch already held, so the controller's first push
// is never a downgrade.
func (rt *Router) subscribe(sinceEpoch uint64) (net.Conn, error) {
	conn, err := rt.cfg.DialControl()
	if err != nil {
		return nil, fmt.Errorf("cluster: router: control dial: %w", err)
	}
	w := wire.NewWriter(conn)
	rt.wmu.Lock()
	err = w.Write(wire.Ack{Seq: sinceEpoch})
	rt.wmu.Unlock()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: router: subscribe: %w", err)
	}
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		conn.Close()
		return nil, ErrRouterClosed
	}
	rt.conn = conn
	rt.w = w
	rt.mu.Unlock()
	return conn, nil
}

// readLoop owns the watcher connection: it applies route-table pushes
// and redials on loss, until Close.
func (rt *Router) readLoop(conn net.Conn) {
	defer close(rt.readerDone)
	for {
		r := wire.NewReader(conn)
		for {
			m, err := r.Next()
			if err != nil {
				break
			}
			if t, ok := m.(wire.RouteTable); ok {
				rt.apply(t)
			}
		}
		conn.Close()
		for {
			rt.mu.Lock()
			closed := rt.closed
			since := rt.table.Epoch
			rt.mu.Unlock()
			if closed {
				return
			}
			c, err := rt.subscribe(since)
			if err == nil {
				conn = c
				break
			}
			if errors.Is(err, ErrRouterClosed) {
				return
			}
			if rt.cfg.Logf != nil {
				rt.cfg.Logf("router: resubscribe: %v", err)
			}
			if rt.cfg.Sleep != nil {
				rt.cfg.Sleep(DefaultBeatEvery)
			}
		}
	}
}

// apply installs t if it is newer than the current table.
func (rt *Router) apply(t wire.RouteTable) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if t.Epoch <= rt.table.Epoch {
		return
	}
	rt.table = t
	rt.ring, rt.addrs = RingFromTable(t)
	rt.cond.Broadcast()
}

// Close tears down the watcher connection and joins the reader.
func (rt *Router) Close() error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil
	}
	rt.closed = true
	conn := rt.conn
	rt.cond.Broadcast()
	rt.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	<-rt.readerDone
	return nil
}

// Table returns the newest route table received.
func (rt *Router) Table() wire.RouteTable {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.table
}

// Lookup routes deviceID under the current table, returning the owning
// shard, its session address, and the table epoch the answer came from.
func (rt *Router) Lookup(deviceID uint64) (shard uint64, addr string, epoch uint64, err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return 0, "", 0, ErrRouterClosed
	}
	if rt.ring == nil {
		return 0, "", rt.table.Epoch, fmt.Errorf("cluster: router: no route table yet")
	}
	shard, ok := rt.ring.Owner(deviceID)
	if !ok {
		return 0, "", rt.table.Epoch, fmt.Errorf("cluster: router: route table has no members (epoch %d)", rt.table.Epoch)
	}
	return shard, rt.addrs[shard], rt.table.Epoch, nil
}

// Poke nudges the controller for a fresh table after a dial observed at
// epoch failed. It is epoch-gated twice over: a no-op if a newer table
// already arrived, and at most one poll per epoch across all devices —
// every other caller piggybacks on the outstanding one.
func (rt *Router) Poke(epoch uint64) {
	rt.mu.Lock()
	if rt.closed || rt.table.Epoch > epoch || rt.polled >= epoch || rt.w == nil {
		rt.mu.Unlock()
		return
	}
	rt.polled = epoch
	w := rt.w
	rt.mu.Unlock()
	// A write error just means the reader is about to notice the dead
	// conn and redial — the resubscribe handshake doubles as the poll.
	rt.wmu.Lock()
	err := w.Write(wire.Ack{Seq: epoch})
	rt.wmu.Unlock()
	if err != nil && rt.cfg.Logf != nil {
		rt.cfg.Logf("router: poke: %v", err)
	}
}

// Dialer returns a route-following dial function for one device, in the
// shape client.Config.Route expects: each call routes the device under
// the newest table and reports moved=true when the owner differs from
// the previous successful dial — the signal that the parked session (if
// any) is on a different shard and Resume must be skipped.
func (rt *Router) Dialer(deviceID uint64) func() (conn net.Conn, moved bool, err error) {
	if rt.cfg.DialShard == nil {
		return func() (net.Conn, bool, error) {
			return nil, false, fmt.Errorf("cluster: router: DialShard is required for Dialer")
		}
	}
	var last uint64
	hasLast := false
	return func() (net.Conn, bool, error) {
		shard, addr, epoch, err := rt.Lookup(deviceID)
		if err != nil {
			return nil, false, err
		}
		conn, err := rt.cfg.DialShard(addr)
		if err != nil {
			rt.Poke(epoch)
			return nil, false, err
		}
		moved := hasLast && shard != last
		last, hasLast = shard, true
		return conn, moved, nil
	}
}
