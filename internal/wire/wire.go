// Package wire is the eTrain service protocol: a versioned,
// length-prefixed binary frame codec connecting a device (or a load
// generator standing in for one) to an etraind session.
//
// # Frame layout
//
// Every frame is
//
//	uint32  payload length N (big-endian), N = 2 + len(body)
//	uint8   protocol version (Version)
//	uint8   message type (Type)
//	[]byte  body, fixed layout per type
//
// All integers are big-endian; instants and durations travel as int64
// nanoseconds; floats as IEEE-754 bits; strings as uint16 length + bytes;
// booleans as one strict 0/1 byte. Every message has exactly one encoding
// — Decode rejects trailing bytes, over-long frames and non-canonical
// booleans — so encode∘decode is the identity on valid frames, which the
// fuzz target and the golden tests hold the codec to.
//
// # Session protocol
//
// A connection hosts one device session:
//
//  1. client → Hello        session config (device identity, Θ, k, horizon,
//     channel seed)
//  2. server → Ack{0}       session admitted
//  3. client → HeartbeatObserved / CargoArrival, in non-decreasing time
//     order; the server's engine executes slots as virtual time advances
//     and emits one Decision frame per slot that transmitted data
//  4. client → Ack{seq}     end of events: run to the horizon
//  5. server → remaining Decision frames, then StatsSnapshot, then
//     Ack{seq}; the session is over
//
// # Sequence numbers and resume
//
// Both directions carry implicit sequence numbers: TCP delivers frames in
// order, so the n-th session frame a side sends has sequence n (counted
// from 1). Client session frames are the event frames plus the finish Ack;
// server session frames are Decisions, the StatsSnapshot and the final Ack.
// Handshake frames (Hello, Resume, the admission Ack{0} and ResumeOK) are
// control frames and are not numbered.
//
// When a connection dies mid-session, the client may reconnect and open
// the replacement connection with a Resume instead of a Hello:
//
//  1. client → Resume{device, token, got}   got = server session frames the
//     client has already received
//  2. server → ResumeOK{got}                got = client session frames the
//     server has already consumed
//  3. server → retained session frames with sequence > Resume.Got, then the
//     session continues where it left off; the client re-sends its own
//     session frames from sequence ResumeOK.Got+1
//
// Token authenticates the re-attach: it is SessionToken of the session's
// Hello, a pure function of the session parameters that both ends compute
// independently (DESIGN.md §11).
//
// The decision/metrics stream is a pure function of the inbound frame
// stream: the codec and the session engine never read the wall clock or an
// unseeded random source (DESIGN.md §10).
//
// # Cluster control protocol
//
// The same codec carries the control plane of a sharded cluster
// (DESIGN.md §13). A shard's control connection to the controller opens
// with ShardHello and then streams periodic ShardBeat and ShardStats
// frames; the controller pushes a RouteTable after registration and again
// on every epoch change. A client (load generator or admin tool) opens a
// watch connection with Ack{Seq: epoch} — the epoch of the newest table it
// already holds, 0 for none — and receives the current RouteTable plus a
// push on every subsequent change. Control connections carry no session
// frames and session connections carry no control frames.
package wire

import (
	"time"

	"etrain/internal/profile"
)

// Version is the protocol version carried by every frame.
const Version = 1

// MaxPayload bounds a frame's declared payload length; Decode rejects
// anything larger before allocating, so a hostile length prefix cannot
// balloon memory.
const MaxPayload = 1 << 20

// Type identifies a message. The zero value is invalid.
type Type uint8

// Message types.
const (
	TypeHello Type = iota + 1
	TypeHeartbeatObserved
	TypeCargoArrival
	TypeDecision
	TypeAck
	TypeStatsSnapshot
	TypeResume
	TypeResumeOK
	TypeShardHello
	TypeShardBeat
	TypeShardStats
	TypeRouteTable
	TypeBusy
	TypeRedirect
	TypeShardOverload
)

// String returns the type's protocol name.
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeHeartbeatObserved:
		return "heartbeat_observed"
	case TypeCargoArrival:
		return "cargo_arrival"
	case TypeDecision:
		return "decision"
	case TypeAck:
		return "ack"
	case TypeStatsSnapshot:
		return "stats_snapshot"
	case TypeResume:
		return "resume"
	case TypeResumeOK:
		return "resume_ok"
	case TypeShardHello:
		return "shard_hello"
	case TypeShardBeat:
		return "shard_beat"
	case TypeShardStats:
		return "shard_stats"
	case TypeRouteTable:
		return "route_table"
	case TypeBusy:
		return "busy"
	case TypeRedirect:
		return "redirect"
	case TypeShardOverload:
		return "shard_overload"
	default:
		return "invalid"
	}
}

// Message is one decoded protocol message.
type Message interface {
	// MsgType returns the message's wire type.
	MsgType() Type
}

// Hello opens a session: the client announces the device and its
// scheduling parameters. The server derives the device's channel
// (bandwidth trace) from Seed, so the heavyweight trace never crosses the
// wire and both ends of an equivalence test see the same channel.
type Hello struct {
	// DeviceID identifies the device; echoed in the final StatsSnapshot.
	DeviceID uint64
	// Seed derives the server-side channel model (bandwidth.FromSeed).
	Seed int64
	// Theta is the eTrain cost bound Θ.
	Theta float64
	// K is the per-heartbeat batch bound k (≥ 1; core.KInfinite for ∞).
	K uint32
	// Slot is the decision period; 0 means the strategy default (1 s).
	Slot time.Duration
	// Horizon is the session's simulated span.
	Horizon time.Duration
}

// MsgType implements Message.
func (Hello) MsgType() Type { return TypeHello }

// HeartbeatObserved reports one train departure the device's heartbeat
// monitor observed.
type HeartbeatObserved struct {
	// At is the departure instant.
	At time.Duration
	// App names the heartbeat-sending application.
	App string
	// Size is the heartbeat payload in bytes.
	Size int64
}

// MsgType implements Message.
func (HeartbeatObserved) MsgType() Type { return TypeHeartbeatObserved }

// CargoArrival reports one delay-tolerant data packet handed to the
// scheduler.
type CargoArrival struct {
	// ID is the packet's session-unique identifier, echoed in Decisions.
	ID uint64
	// At is the arrival instant t_a(u).
	At time.Duration
	// App names the cargo application.
	App string
	// Size is the payload in bytes.
	Size int64
	// Profile is the delay-cost profile family the packet is charged under.
	Profile profile.Kind
	// Deadline parameterizes the profile.
	Deadline time.Duration
}

// MsgType implements Message.
func (CargoArrival) MsgType() Type { return TypeCargoArrival }

// DecisionEntry is one transmitted packet within a Decision.
type DecisionEntry struct {
	// ID echoes the CargoArrival's packet identifier.
	ID uint64
	// Start is the instant the radio began transmitting the packet.
	Start time.Duration
}

// Decision reports the data transmissions of one executed slot: the Q*(t)
// the strategy released, with the serialized link's start instants.
type Decision struct {
	// Slot is the slot's start instant (the horizon for the final flush).
	Slot time.Duration
	// Flush marks the horizon drain of still-queued packets.
	Flush bool
	// Entries lists the transmitted packets in transmission order.
	Entries []DecisionEntry
}

// MsgType implements Message.
func (Decision) MsgType() Type { return TypeDecision }

// Ack is the protocol's synchronization point: the server acks a Hello
// with Seq 0, the client marks end-of-events with a chosen Seq, and the
// server echoes that Seq after the final StatsSnapshot.
type Ack struct {
	// Seq is the acknowledged sequence number.
	Seq uint64
}

// MsgType implements Message.
func (Ack) MsgType() Type { return TypeAck }

// StatsSnapshot is the session's final metrics, mirroring sim.Metrics
// field for field so wire-driven runs can be compared bit-exactly against
// direct in-process runs.
type StatsSnapshot struct {
	// DeviceID echoes the Hello.
	DeviceID uint64
	// EnergyJ is the session's total radio energy in joules.
	EnergyJ float64
	// AvgDelayS is the normalized (mean per-packet) delay in seconds.
	AvgDelayS float64
	// ViolationRatio is the fraction of data packets past their deadline.
	ViolationRatio float64
	// DataPackets counts transmitted cargo packets.
	DataPackets uint64
	// Heartbeats counts heartbeat transmissions.
	Heartbeats uint64
	// ForcedFlush counts packets drained unscheduled at the horizon.
	ForcedFlush uint64
}

// MsgType implements Message.
func (StatsSnapshot) MsgType() Type { return TypeStatsSnapshot }

// Resume reopens a cut session on a replacement connection instead of a
// Hello. The server looks the session up by (DeviceID, Token), prunes its
// retained outbound frames to those with sequence > Got, and answers with
// a ResumeOK carrying its own received count; an unknown or expired
// session is a protocol error and the client must fall back to a fresh
// Hello replay.
type Resume struct {
	// DeviceID identifies the session being resumed.
	DeviceID uint64
	// Token is SessionToken of the session's Hello; a mismatch rejects the
	// resume so a seed collision cannot splice two devices' sessions.
	Token uint64
	// Got counts the server session frames the client has already
	// received: the server suppresses or replays accordingly, so no frame
	// is lost and none is delivered twice.
	Got uint64
}

// MsgType implements Message.
func (Resume) MsgType() Type { return TypeResume }

// ResumeOK admits a Resume: the server has re-attached the session and
// will replay its retained frames. The client re-sends its own session
// frames from sequence Got+1.
type ResumeOK struct {
	// Got counts the client session frames the server consumed before the
	// cut.
	Got uint64
}

// MsgType implements Message.
func (ResumeOK) MsgType() Type { return TypeResumeOK }

// ShardHello registers an etraind shard with the cluster controller: the
// first frame on a shard's control connection. The controller adds the
// shard to the routing ring and answers with the current RouteTable
// (DESIGN.md §13).
type ShardHello struct {
	// ShardID is the shard's stable cluster-unique identity; it, not the
	// address, is what the consistent-hash ring is built from.
	ShardID uint64
	// Addr is the shard's advertised session address ("host:port") that
	// clients dial for device sessions.
	Addr string
}

// MsgType implements Message.
func (ShardHello) MsgType() Type { return TypeShardHello }

// ShardBeat is a shard's periodic liveness heartbeat on its control
// connection — the cluster borrowing the paper's own trick of keeping a
// channel warm with small periodic messages.
type ShardBeat struct {
	// ShardID echoes the registration.
	ShardID uint64
	// Seq is the shard's monotone beat counter, so the controller can see
	// gaps (a shard that restarted re-registers and restarts the count).
	Seq uint64
}

// MsgType implements Message.
func (ShardBeat) MsgType() Type { return TypeShardBeat }

// ShardStats is a shard's periodic counter snapshot, field for field the
// server.Counters vocabulary. The shard snapshots its counters under one
// lock (server.Stats), so a ShardStats frame is never torn: its fields
// are one consistent instant of the shard's accounting.
type ShardStats struct {
	// ShardID echoes the registration.
	ShardID uint64

	Accepted     uint64 // connections admitted into sessions
	Rejected     uint64 // connections refused (limit reached or draining)
	Active       uint64 // sessions currently running
	Completed    uint64 // sessions that ran the full protocol
	Errored      uint64 // sessions ended by a protocol or transport error
	Panics       uint64 // sessions ended by a recovered panic
	Parked       uint64 // sessions parked after losing their transport
	Resumed      uint64 // parked sessions adopted by a Resume handshake
	ResumeMisses uint64 // Resume frames naming no parked session
	Discarded    uint64 // parked sessions dropped without resume
	Detached     uint64 // parked sessions currently awaiting resume
	FramesIn     uint64 // frames decoded from clients
	FramesOut    uint64 // frames written to clients
	Decisions    uint64 // Decision frames among FramesOut
}

// MsgType implements Message.
func (ShardStats) MsgType() Type { return TypeShardStats }

// RouteEntry is one live shard in a RouteTable.
type RouteEntry struct {
	// ShardID is the ring member identity.
	ShardID uint64
	// Addr is the shard's session address clients dial.
	Addr string
}

// RouteTable is the controller's device→shard routing state: the ring
// parameters plus the live member set, stamped with a monotone epoch.
// Routing is a pure function of (Seed, Vnodes, Shards), so every client
// holding the same table routes every device identically — the table
// carries the ring inputs, never the ring itself.
type RouteTable struct {
	// Epoch increments on every membership or drain change; clients use it
	// to discard stale tables.
	Epoch uint64
	// Seed roots the ring's point hashes.
	Seed int64
	// Vnodes is the ring's virtual-node count per shard.
	Vnodes uint32
	// Shards lists the routable members in ascending ShardID order — the
	// canonical order, so equal tables encode to equal bytes.
	Shards []RouteEntry
}

// MsgType implements Message.
func (RouteTable) MsgType() Type { return TypeRouteTable }

// BusyReason says why a server sent a Busy frame, so clients and ledgers
// can distinguish connection-limit pressure from queue pressure from an
// administrative wind-down.
type BusyReason uint8

// Busy reasons. The zero value is invalid on the wire.
const (
	// ReasonConns: the shard is at its connection limit (MaxConns) or the
	// admission policy refused the Hello.
	ReasonConns BusyReason = iota + 1
	// ReasonQueue: the session's event queue is saturated past the
	// admission policy's high-water mark and the frame was shed.
	ReasonQueue
	// ReasonDraining: the shard is draining (administrative rebalance).
	ReasonDraining
	// ReasonLameDuck: the shard is lame-ducking ahead of shutdown.
	ReasonLameDuck
)

// String returns the reason's protocol name.
func (r BusyReason) String() string {
	switch r {
	case ReasonConns:
		return "conns"
	case ReasonQueue:
		return "queue"
	case ReasonDraining:
		return "draining"
	case ReasonLameDuck:
		return "lame-duck"
	default:
		return "invalid"
	}
}

// Busy is the server's explicit overload signal: instead of silently
// closing, an admission-enabled server answers a refused Hello (or a shed
// event frame) with Busy and then parks or closes. RetryAfter is the
// server's suggested wait; a well-behaved client sleeps a seed-jittered
// fraction of it and spends one retry-budget token before trying again
// (DESIGN.md §15). Busy is a control frame and is never sequence-numbered.
type Busy struct {
	// RetryAfter is the server's suggested backoff before the next attempt.
	RetryAfter time.Duration
	// Reason says which pressure produced the refusal.
	Reason BusyReason
}

// MsgType implements Message.
func (Busy) MsgType() Type { return TypeBusy }

// Redirect hints that another shard should serve this device — sent
// alongside Busy when the refusing shard knows a better owner (e.g. it is
// draining and the route table has already moved the device). Clients
// treat it as advisory: the route table remains authoritative.
type Redirect struct {
	// Addr is the suggested session address ("host:port").
	Addr string
}

// MsgType implements Message.
func (Redirect) MsgType() Type { return TypeRedirect }

// ShardOverload is a shard's periodic overload-counter snapshot on its
// control connection, sent after ShardStats when the shard runs an
// admission policy. Like ShardStats it is snapshotted under one lock, so
// its fields are one consistent instant of the shard's overload
// accounting.
type ShardOverload struct {
	// ShardID echoes the registration.
	ShardID uint64

	Refused  uint64 // Hellos refused by the admission policy
	Shed     uint64 // cargo event frames shed under queue pressure
	BusySent uint64 // Busy frames written to clients
}

// MsgType implements Message.
func (ShardOverload) MsgType() Type { return TypeShardOverload }

// SessionToken derives the resume token of a session from its Hello: an
// FNV-1a hash of the Hello's canonical frame encoding. Both ends compute
// it independently — no token ever crosses the wire before the Resume that
// presents it — and it is a pure function of the session parameters, so
// reconnect behaviour stays reproducible from the run's seeds. The frame
// is encoded into a stack array, so a token costs no allocation.
func SessionToken(h Hello) uint64 {
	var buf [helloFrameSize]byte
	f := Frame{Type: TypeHello, Hello: h}
	// Hello has no variable-length fields: encoding is total and fits buf.
	b, _ := f.Append(buf[:0])
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	t := uint64(offset64)
	for _, c := range b {
		t ^= uint64(c)
		t *= prime64
	}
	return t
}

// helloFrameSize is a Hello's encoded size: the header plus DeviceID,
// Seed, Theta, K, Slot and Horizon.
const helloFrameSize = headerSize + 8 + 8 + 8 + 4 + 8 + 8
