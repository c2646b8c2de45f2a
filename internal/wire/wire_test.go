package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"etrain/internal/profile"
)

// goldenFrames pins the canonical encoding of every message type. A
// mismatch here is a protocol break: bump Version before changing any
// layout.
var goldenFrames = []struct {
	name string
	msg  Message
	hex  string
}{
	{
		name: "hello",
		msg:  Hello{DeviceID: 1, Seed: 42, Theta: 2.5, K: 3, Slot: time.Second, Horizon: time.Minute},
		hex:  "0000002e01010000000000000001000000000000002a400400000000000000000003000000003b9aca000000000df8475800",
	},
	{
		name: "heartbeat_observed",
		msg:  HeartbeatObserved{At: 1500 * time.Millisecond, App: "mail", Size: 256},
		hex:  "0000001801020000000059682f0000046d61696c0000000000000100",
	},
	{
		name: "cargo_arrival",
		msg:  CargoArrival{ID: 7, At: 2 * time.Second, App: "weibo", Size: 1024, Profile: profile.KindWeibo, Deadline: 30 * time.Second},
		hex:  "0000002a0103000000000000000700000000773594000005776569626f00000000000004000200000006fc23ac00",
	},
	{
		name: "decision",
		msg:  Decision{Slot: 3 * time.Second, Flush: true, Entries: []DecisionEntry{{ID: 7, Start: 3100 * time.Millisecond}}},
		hex:  "0000001d010400000000b2d05e00010001000000000000000700000000b8c63f00",
	},
	{
		name: "ack",
		msg:  Ack{Seq: 9},
		hex:  "0000000a01050000000000000009",
	},
	{
		name: "resume",
		msg:  Resume{DeviceID: 3, Token: 42, Got: 5},
		hex:  "0000001a01070000000000000003000000000000002a0000000000000005",
	},
	{
		name: "resume_ok",
		msg:  ResumeOK{Got: 7},
		hex:  "0000000a01080000000000000007",
	},
	{
		name: "stats_snapshot",
		msg:  StatsSnapshot{DeviceID: 1, EnergyJ: 12.75, AvgDelayS: 0.5, ViolationRatio: 0.125, DataPackets: 10, Heartbeats: 20, ForcedFlush: 2},
		hex:  "0000003a0106000000000000000140298000000000003fe00000000000003fc0000000000000000000000000000a00000000000000140000000000000002",
	},
	{
		name: "shard_hello",
		msg:  ShardHello{ShardID: 2, Addr: "127.0.0.1:4810"},
		hex:  "0000001a01090000000000000002000e3132372e302e302e313a34383130",
	},
	{
		name: "shard_stats",
		msg: ShardStats{ShardID: 2, Seq: 17, Accepted: 14, Rejected: 1, Active: 2, Completed: 3,
			Parked: 4, Resumed: 3, ResumeMisses: 1, Discarded: 1, Detached: 1,
			FramesIn: 100, FramesOut: 90, Decisions: 40, Refused: 5, Shed: 3, BusySent: 7},
		hex: "0000009a010b00000000000000020000000000000011000000000000000e00000000000000010000000000000002000000000000000300000000000000000000000000000000000000000000000400000000000000030000000000000001000000000000000100000000000000010000000000000064000000000000005a0000000000000028000000000000000500000000000000030000000000000007",
	},
	{
		name: "route_table",
		msg:  RouteTable{Epoch: 3, Seed: 42, Vnodes: 64, Shards: []RouteEntry{{ShardID: 1, Addr: "a:1"}, {ShardID: 2, Addr: "b:2"}}},
		hex:  "00000032010c0000000000000003000000000000002a00000040000200000000000000010003613a3100000000000000020003623a32",
	},
	{
		name: "busy",
		msg:  Busy{RetryAfter: 250 * time.Millisecond, Reason: ReasonQueue},
		hex:  "0000000b010d000000000ee6b28002",
	},
	{
		name: "redirect",
		msg:  Redirect{Addr: "127.0.0.1:9300"},
		hex:  "00000012010e000e3132372e302e302e313a39333030",
	},
}

func TestGoldenEncoding(t *testing.T) {
	for _, tc := range goldenFrames {
		t.Run(tc.name, func(t *testing.T) {
			b, err := Append(nil, tc.msg)
			if err != nil {
				t.Fatalf("Append: %v", err)
			}
			if got := hex.EncodeToString(b); got != tc.hex {
				t.Errorf("encoding drifted:\n got %s\nwant %s", got, tc.hex)
			}
			m, n, err := Decode(b)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if n != len(b) {
				t.Errorf("Decode consumed %d of %d bytes", n, len(b))
			}
			if !reflect.DeepEqual(m, tc.msg) {
				t.Errorf("round trip: got %#v, want %#v", m, tc.msg)
			}
		})
	}
}

// retiredFrames are well-formed frames of the retired types 10 (a
// shard's beat: shard 2, seq 17) and 15 (its overload counters: shard 2,
// refused 5, shed 3, busy-sent 7), as earlier agents sent them.
var retiredFrames = []struct {
	name string
	typ  Type
	hex  string
}{
	{"shard_beat", 10, "00000012010a00000000000000020000000000000011"},
	{"shard_overload", 15, "00000022010f0000000000000002000000000000000500000000000000030000000000000007"},
}

// TestRetiredTypesRejected: frames of a retired type are unknown to every
// decoder, and the type bytes name nothing.
func TestRetiredTypesRejected(t *testing.T) {
	for _, rf := range retiredFrames {
		t.Run(rf.name, func(t *testing.T) {
			b, err := hex.DecodeString(rf.hex)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := Decode(b); err == nil || !strings.Contains(err.Error(), "unknown message type") {
				t.Errorf("Decode: got %v, want an unknown-type error", err)
			}
			if _, err := NewReader(bytes.NewReader(b)).Next(); err == nil || !strings.Contains(err.Error(), "unknown message type") {
				t.Errorf("Reader: got %v, want an unknown-type error", err)
			}
			if got := rf.typ.String(); got != "invalid" {
				t.Errorf("Type(%d).String() = %q, want invalid", rf.typ, got)
			}
		})
	}
}

// roundTripMessages exercises edge values the goldens do not: empty and
// non-ASCII strings, zero and negative instants, empty and multi-entry
// decisions, extreme floats.
func roundTripMessages() []Message {
	return []Message{
		Hello{},
		Hello{DeviceID: ^uint64(0), Seed: -1, Theta: 1e-300, K: ^uint32(0), Slot: -time.Second, Horizon: 1<<62 - 1},
		HeartbeatObserved{App: ""},
		HeartbeatObserved{At: -5 * time.Minute, App: "wēi博", Size: -9},
		CargoArrival{Profile: profile.Kind(200), App: strings.Repeat("x", 1<<16-1)},
		Decision{},
		Decision{Slot: time.Hour, Flush: false, Entries: []DecisionEntry{{1, 2}, {3, 4}, {5, 6}}},
		Ack{},
		Resume{DeviceID: ^uint64(0), Token: ^uint64(0), Got: 1<<64 - 2},
		ResumeOK{},
		StatsSnapshot{EnergyJ: -0.0, AvgDelayS: 1e300},
		ShardHello{},
		ShardHello{ShardID: ^uint64(0), Addr: "[::1]:4810"},
		ShardStats{},
		ShardStats{ShardID: ^uint64(0), Seq: ^uint64(0), FramesIn: ^uint64(0), Decisions: 1, BusySent: ^uint64(0)},
		RouteTable{},
		RouteTable{Epoch: ^uint64(0), Seed: -1, Vnodes: ^uint32(0),
			Shards: []RouteEntry{{ShardID: 9, Addr: ""}, {ShardID: 8, Addr: "host.example:1"}}},
		Busy{},
		Busy{RetryAfter: -time.Second, Reason: BusyReason(255)},
		Busy{RetryAfter: 1<<62 - 1, Reason: ReasonLameDuck},
		Redirect{},
		Redirect{Addr: "[::1]:4810"},
	}
}

func TestRoundTrip(t *testing.T) {
	for _, msg := range roundTripMessages() {
		b, err := Append(nil, msg)
		if err != nil {
			t.Fatalf("Append(%#v): %v", msg, err)
		}
		got, n, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode(%#v frame): %v", msg, err)
		}
		if n != len(b) {
			t.Errorf("%T: consumed %d of %d bytes", msg, n, len(b))
		}
		// Empty Entries may round-trip as nil; normalize before comparing.
		want := msg
		if d, ok := want.(Decision); ok && len(d.Entries) == 0 {
			d.Entries = nil
			want = d
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip: got %#v, want %#v", got, want)
		}
	}
}

func TestAppendExtends(t *testing.T) {
	var buf []byte
	var err error
	for _, tc := range goldenFrames {
		if buf, err = Append(buf, tc.msg); err != nil {
			t.Fatalf("Append(%s): %v", tc.name, err)
		}
	}
	for _, tc := range goldenFrames {
		m, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("Decode(%s): %v", tc.name, err)
		}
		if !reflect.DeepEqual(m, tc.msg) {
			t.Errorf("%s: got %#v, want %#v", tc.name, m, tc.msg)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Errorf("%d bytes left after decoding all frames", len(buf))
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := Append(nil, Decision{Entries: make([]DecisionEntry, maxEntries+1)}); err == nil {
		t.Error("oversized decision: want error")
	}
	if _, err := Append(nil, HeartbeatObserved{App: strings.Repeat("x", 1<<16)}); err == nil {
		t.Error("overlong string: want error")
	}
}

func TestDecodeErrors(t *testing.T) {
	valid, err := Append(nil, Ack{Seq: 9})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return mutate(b)
	}
	cases := []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"short header", valid[:5]},
		{"truncated body", valid[:len(valid)-1]},
		{"payload below minimum", corrupt(func(b []byte) []byte { b[3] = 1; return b })},
		{"payload above MaxPayload", corrupt(func(b []byte) []byte { b[0] = 0xff; return b })},
		{"bad version", corrupt(func(b []byte) []byte { b[4] = 0; return b })},
		{"unknown type", corrupt(func(b []byte) []byte { b[5] = 99; return b })},
		{"trailing body bytes", corrupt(func(b []byte) []byte { b[3] += 1; return append(b, 0) })},
		{"body shorter than type needs", corrupt(func(b []byte) []byte { b[3] -= 1; return b[:len(b)-1] })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := Decode(tc.frame); err == nil {
				t.Error("want error, got nil")
			}
		})
	}

	// A Decision flush byte other than 0/1 is non-canonical.
	dec, err := Append(nil, Decision{Slot: time.Second, Flush: true})
	if err != nil {
		t.Fatal(err)
	}
	dec[headerSize+8] = 2
	if _, _, err := Decode(dec); err == nil {
		t.Error("non-canonical boolean: want error")
	}

	// A Decision entry count larger than the remaining body must be
	// rejected before allocation.
	dec2, err := Append(nil, Decision{Slot: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	dec2[headerSize+9] = 0xff
	dec2[headerSize+10] = 0xff
	if _, _, err := Decode(dec2); err == nil {
		t.Error("entry count past body end: want error")
	}
}

func TestReaderWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, tc := range goldenFrames {
		if err := w.Write(tc.msg); err != nil {
			t.Fatalf("Write(%s): %v", tc.name, err)
		}
	}
	r := NewReader(&buf)
	for _, tc := range goldenFrames {
		m, err := r.Next()
		if err != nil {
			t.Fatalf("Next(%s): %v", tc.name, err)
		}
		if !reflect.DeepEqual(m, tc.msg) {
			t.Errorf("%s: got %#v, want %#v", tc.name, m, tc.msg)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("Next at stream end: got %v, want io.EOF", err)
	}
}

// TestReaderPartialFrame holds truncation to its typed contract: every
// strict prefix of every golden frame must surface an error matching both
// ErrTruncated and io.ErrUnexpectedEOF — never a hang, never a misparse —
// while the zero-length prefix is a clean io.EOF boundary.
func TestReaderPartialFrame(t *testing.T) {
	for _, tc := range goldenFrames {
		b, err := Append(nil, tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(b); cut++ {
			r := NewReader(bytes.NewReader(b[:cut]))
			m, err := r.Next()
			if cut == 0 {
				if err != io.EOF {
					t.Errorf("%s cut at 0: got %v, want io.EOF", tc.name, err)
				}
				continue
			}
			if m != nil || err == nil {
				t.Fatalf("%s cut at %d: decoded %#v from a torn frame", tc.name, cut, m)
			}
			if !errors.Is(err, ErrTruncated) {
				t.Errorf("%s cut at %d: %v does not match ErrTruncated", tc.name, cut, err)
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s cut at %d: %v does not match io.ErrUnexpectedEOF", tc.name, cut, err)
			}
		}
	}
}

// oneByteWriter delivers at most one byte per Write call — the worst legal
// chunking a transport can impose — and records everything it accepted.
type oneByteWriter struct {
	bytes.Buffer
}

func (w *oneByteWriter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return w.Buffer.Write(p[:1])
}

// TestWriterShortWrites drives the frame writer over a conn that writes
// one byte at a time, frame by frame and as one flushed batch: the
// emitted stream must still be the canonical golden encoding of every
// frame, byte for byte.
func TestWriterShortWrites(t *testing.T) {
	for _, batched := range []bool{false, true} {
		var sink oneByteWriter
		w := NewWriter(&sink)
		want := ""
		for _, tc := range goldenFrames {
			write := w.Write
			if batched {
				write = w.Buffer
			}
			if err := write(tc.msg); err != nil {
				t.Fatalf("batched=%v %s over 1-byte conn: %v", batched, tc.name, err)
			}
			want += tc.hex
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("batched=%v flush over 1-byte conn: %v", batched, err)
		}
		if got := hex.EncodeToString(sink.Bytes()); got != want {
			t.Errorf("batched=%v short-write stream drifted from canonical frames:\n got %s\nwant %s", batched, got, want)
		}
	}
}

// callWriter records every Write call it receives.
type callWriter struct {
	calls [][]byte
}

func (w *callWriter) Write(p []byte) (int, error) {
	w.calls = append(w.calls, append([]byte(nil), p...))
	return len(p), nil
}

// TestWriterBatch holds batching to the unbatched byte stream: N Buffer
// calls plus one Flush deliver exactly the bytes of N Writes, in one
// underlying Write call, and an empty Flush makes no call at all.
func TestWriterBatch(t *testing.T) {
	var perFrame bytes.Buffer
	pw := NewWriter(&perFrame)
	var sink callWriter
	bw := NewWriter(&sink)
	if err := bw.Flush(); err != nil || len(sink.calls) != 0 {
		t.Fatalf("empty flush: err %v, %d calls, want none", err, len(sink.calls))
	}
	for _, tc := range goldenFrames {
		if err := pw.Write(tc.msg); err != nil {
			t.Fatalf("Write(%s): %v", tc.name, err)
		}
		if err := bw.Buffer(tc.msg); err != nil {
			t.Fatalf("Buffer(%s): %v", tc.name, err)
		}
	}
	if bw.Buffered() != perFrame.Len() {
		t.Errorf("buffered %d bytes, per-frame stream is %d", bw.Buffered(), perFrame.Len())
	}
	if len(sink.calls) != 0 {
		t.Fatalf("Buffer wrote %d times before Flush", len(sink.calls))
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(sink.calls) != 1 {
		t.Fatalf("flush made %d Write calls, want 1", len(sink.calls))
	}
	if !bytes.Equal(sink.calls[0], perFrame.Bytes()) {
		t.Errorf("batched stream differs from per-frame writes:\n got %x\nwant %x", sink.calls[0], perFrame.Bytes())
	}
	if err := bw.Flush(); err != nil || len(sink.calls) != 1 || bw.Buffered() != 0 {
		t.Errorf("second flush: err %v, %d calls, %d buffered; want no call", err, len(sink.calls), bw.Buffered())
	}
}

// TestWriterReset verifies Reset drops the pending batch and retargets:
// nothing buffered before it reaches either writer.
func TestWriterReset(t *testing.T) {
	var first, second bytes.Buffer
	w := NewWriter(&first)
	if err := w.Buffer(Ack{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	w.Reset(&second)
	if w.Buffered() != 0 {
		t.Fatalf("%d bytes still pending after Reset", w.Buffered())
	}
	if err := w.Write(Ack{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	want, err := Append(nil, Ack{Seq: 2})
	if err != nil {
		t.Fatal(err)
	}
	if first.Len() != 0 || !bytes.Equal(second.Bytes(), want) {
		t.Errorf("after Reset: first got %x, second got %x; want nothing and %x", first.Bytes(), second.Bytes(), want)
	}
}

// stuckWriter reports zero progress without an error, which would
// otherwise spin the writer's retry loop forever.
type stuckWriter struct{}

func (stuckWriter) Write(p []byte) (int, error) { return 0, nil }

func TestWriterZeroProgress(t *testing.T) {
	if err := NewWriter(stuckWriter{}).Write(Ack{Seq: 1}); err != io.ErrShortWrite {
		t.Errorf("zero-progress write: got %v, want io.ErrShortWrite", err)
	}
}

// TestSessionToken pins the resume token to its definition, FNV-1a of
// the Hello's canonical frame (Append), over 10,000 seeded Hellos and the
// edge values — zero and maximum fields, a negative seed, and NaN, ±Inf
// and −0 bits for Θ — and to the literal values earlier releases
// computed, so no token can change. It also checks the token is a pure
// function of its Hello that allocates nothing.
func TestSessionToken(t *testing.T) {
	fnv1a := func(h Hello) uint64 {
		b, err := Append(nil, h)
		if err != nil {
			t.Fatal(err)
		}
		sum := fnv.New64a()
		sum.Write(b)
		return sum.Sum64()
	}
	pinned := []struct {
		hello Hello
		token uint64
	}{
		{Hello{DeviceID: 1, Seed: 42, Theta: 2.5, K: 3, Slot: time.Second, Horizon: time.Minute}, 0x4c2f11bde1a63f38},
		{Hello{}, 0x1db8c0621aea782d},
		{Hello{DeviceID: math.MaxUint64, Seed: math.MaxInt64, Theta: math.MaxFloat64, K: math.MaxUint32, Slot: math.MaxInt64, Horizon: math.MaxInt64}, 0xbf4d9f122d633f11},
		{Hello{DeviceID: 7, Seed: -1, Theta: 4, K: 20, Horizon: 2 * time.Minute}, 0xaa63c074d7502b43},
		{Hello{DeviceID: 7, Seed: math.MinInt64, Theta: math.NaN(), K: 20, Horizon: 2 * time.Minute}, 0x822808f823670a7f},
		{Hello{DeviceID: 7, Seed: 3, Theta: math.Inf(1), K: 20, Horizon: 2 * time.Minute}, 0x34dc6ab90f425841},
		{Hello{DeviceID: 7, Seed: 3, Theta: math.Inf(-1), K: 20, Horizon: 2 * time.Minute}, 0xbe730f55f41823c1},
		{Hello{DeviceID: 7, Seed: 3, Theta: math.Copysign(0, -1), K: 20, Horizon: 2 * time.Minute}, 0xdc96bb3928e300ce},
	}
	for _, p := range pinned {
		if got := SessionToken(p.hello); got != p.token {
			t.Errorf("SessionToken(%+v) = %#x, want the pinned %#x", p.hello, got, p.token)
		}
	}
	hellos := []Hello{
		{Slot: math.MinInt64, Horizon: math.MinInt64, Seed: math.MinInt64},
		{Theta: math.Float64frombits(0x7ff0000000000001)}, // signalling NaN
		{Theta: math.Float64frombits(0xfff8000000000000)}, // negative quiet NaN
		{Theta: math.Float64frombits(0x8000000000000000)}, // −0
		{Theta: math.SmallestNonzeroFloat64},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		hellos = append(hellos, Hello{
			DeviceID: rng.Uint64(),
			Seed:     int64(rng.Uint64()),
			Theta:    math.Float64frombits(rng.Uint64()),
			K:        rng.Uint32(),
			Slot:     time.Duration(rng.Uint64()),
			Horizon:  time.Duration(rng.Uint64()),
		})
	}
	for _, h := range append(hellos, pinned[2].hello) {
		if got, want := SessionToken(h), fnv1a(h); got != want {
			t.Fatalf("SessionToken(%+v) = %#x, FNV-1a of its frame is %#x", h, got, want)
		}
	}
	a := pinned[0].hello
	if SessionToken(a) != SessionToken(a) {
		t.Error("token is not a pure function of the hello")
	}
	if allocs := testing.AllocsPerRun(100, func() { SessionToken(a) }); allocs != 0 {
		t.Errorf("SessionToken allocates %v times, want 0", allocs)
	}
}

func TestReaderHostileLength(t *testing.T) {
	frame := []byte{0xff, 0xff, 0xff, 0xff, Version, byte(TypeAck)}
	r := NewReader(bytes.NewReader(frame))
	if _, err := r.Next(); err == nil {
		t.Error("hostile length prefix: want error before allocation")
	}
}
