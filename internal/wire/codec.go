package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"etrain/internal/profile"
)

// headerSize is the fixed frame prefix: uint32 length + version + type.
const headerSize = 6

// maxEntries bounds a Decision's entry count; it is implied by MaxPayload
// (each entry is 16 bytes) but checked explicitly before allocating.
const maxEntries = (MaxPayload - 11) / 16

// maxRouteEntries bounds a RouteTable's shard count; each entry is at
// least 10 bytes (uint64 id + empty-string length prefix), so the bound is
// implied by MaxPayload but checked explicitly before allocating.
const maxRouteEntries = (MaxPayload - 16) / 10

// Frame is one protocol message held by value: Type names the message
// and the field of that type holds it; every other field is left as the
// last frame that used it left it. A Frame is the codec's one currency:
// Frame.Append encodes one, Frame.Decode and Reader.ReadFrame decode into
// one, and the Message functions (Append, Decode, Reader.Next,
// Writer.Buffer and Writer.Write) wrap these, boxing at the edge. A frame
// decoded into again reuses its Decision entries and RouteTable shards,
// so a caller that keeps one frame per connection decodes a session's
// stream without allocating; a caller that keeps a decoded Decision
// across the next decode must copy its Entries.
type Frame struct {
	// Type is the message type; 0 (invalid) for a frame that holds none.
	Type Type

	Hello         Hello
	Heartbeat     HeartbeatObserved
	Cargo         CargoArrival
	Decision      Decision
	Ack           Ack
	Stats         StatsSnapshot
	Resume        Resume
	ResumeOK      ResumeOK
	ShardHello    ShardHello
	ShardBeat     ShardBeat
	ShardStats    ShardStats
	RouteTable    RouteTable
	Busy          Busy
	Redirect      Redirect
	ShardOverload ShardOverload
}

// set stores m in f, reporting false for a message type the codec does
// not know.
func (f *Frame) set(m Message) bool {
	switch v := m.(type) {
	case Hello:
		f.Hello = v
	case HeartbeatObserved:
		f.Heartbeat = v
	case CargoArrival:
		f.Cargo = v
	case Decision:
		f.Decision = v
	case Ack:
		f.Ack = v
	case StatsSnapshot:
		f.Stats = v
	case Resume:
		f.Resume = v
	case ResumeOK:
		f.ResumeOK = v
	case ShardHello:
		f.ShardHello = v
	case ShardBeat:
		f.ShardBeat = v
	case ShardStats:
		f.ShardStats = v
	case RouteTable:
		f.RouteTable = v
	case Busy:
		f.Busy = v
	case Redirect:
		f.Redirect = v
	case ShardOverload:
		f.ShardOverload = v
	default:
		return false
	}
	f.Type = m.MsgType()
	return true
}

// message returns f's message boxed, or nil when f holds none.
func (f *Frame) message() Message {
	switch f.Type {
	case TypeHello:
		return f.Hello
	case TypeHeartbeatObserved:
		return f.Heartbeat
	case TypeCargoArrival:
		return f.Cargo
	case TypeDecision:
		return f.Decision
	case TypeAck:
		return f.Ack
	case TypeStatsSnapshot:
		return f.Stats
	case TypeResume:
		return f.Resume
	case TypeResumeOK:
		return f.ResumeOK
	case TypeShardHello:
		return f.ShardHello
	case TypeShardBeat:
		return f.ShardBeat
	case TypeShardStats:
		return f.ShardStats
	case TypeRouteTable:
		return f.RouteTable
	case TypeBusy:
		return f.Busy
	case TypeRedirect:
		return f.Redirect
	case TypeShardOverload:
		return f.ShardOverload
	default:
		return nil
	}
}

// Append encodes m as one frame appended to dst and returns the extended
// slice. Encoding is total on well-formed messages; it fails only on
// overlong strings or entry lists.
func Append(dst []byte, m Message) ([]byte, error) {
	var f Frame
	if !f.set(m) {
		return nil, fmt.Errorf("wire: cannot encode message type %T", m)
	}
	return f.Append(dst)
}

// Append encodes f's message as one frame appended to dst and returns the
// extended slice. Encoding is total on well-formed messages; it fails only
// on overlong strings or entry lists, or a frame that holds no message.
//
//etrain:hotpath
func (f *Frame) Append(dst []byte) ([]byte, error) {
	frameFrom := len(dst)
	dst = append(dst, 0, 0, 0, 0, Version, byte(f.Type))
	bodyFrom := len(dst)
	var err error
	switch f.Type {
	case TypeHello:
		v := &f.Hello
		dst = appendU64(dst, v.DeviceID)
		dst = appendI64(dst, v.Seed)
		dst = appendF64(dst, v.Theta)
		dst = binary.BigEndian.AppendUint32(dst, v.K)
		dst = appendDur(dst, v.Slot)
		dst = appendDur(dst, v.Horizon)
	case TypeHeartbeatObserved:
		v := &f.Heartbeat
		dst = appendDur(dst, v.At)
		if dst, err = appendString(dst, v.App); err != nil {
			return nil, err
		}
		dst = appendI64(dst, v.Size)
	case TypeCargoArrival:
		v := &f.Cargo
		dst = appendU64(dst, v.ID)
		dst = appendDur(dst, v.At)
		if dst, err = appendString(dst, v.App); err != nil {
			return nil, err
		}
		dst = appendI64(dst, v.Size)
		dst = append(dst, byte(v.Profile))
		dst = appendDur(dst, v.Deadline)
	case TypeDecision:
		v := &f.Decision
		if len(v.Entries) > maxEntries {
			return nil, fmt.Errorf("wire: decision with %d entries exceeds the %d-entry frame bound", len(v.Entries), maxEntries)
		}
		dst = appendDur(dst, v.Slot)
		dst = appendBool(dst, v.Flush)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(v.Entries)))
		for _, e := range v.Entries {
			dst = appendU64(dst, e.ID)
			dst = appendDur(dst, e.Start)
		}
	case TypeAck:
		dst = appendU64(dst, f.Ack.Seq)
	case TypeResume:
		v := &f.Resume
		dst = appendU64(dst, v.DeviceID)
		dst = appendU64(dst, v.Token)
		dst = appendU64(dst, v.Got)
	case TypeResumeOK:
		dst = appendU64(dst, f.ResumeOK.Got)
	case TypeStatsSnapshot:
		v := &f.Stats
		dst = appendU64(dst, v.DeviceID)
		dst = appendF64(dst, v.EnergyJ)
		dst = appendF64(dst, v.AvgDelayS)
		dst = appendF64(dst, v.ViolationRatio)
		dst = appendU64(dst, v.DataPackets)
		dst = appendU64(dst, v.Heartbeats)
		dst = appendU64(dst, v.ForcedFlush)
	case TypeShardHello:
		v := &f.ShardHello
		dst = appendU64(dst, v.ShardID)
		if dst, err = appendString(dst, v.Addr); err != nil {
			return nil, err
		}
	case TypeShardBeat:
		v := &f.ShardBeat
		dst = appendU64(dst, v.ShardID)
		dst = appendU64(dst, v.Seq)
	case TypeShardStats:
		v := &f.ShardStats
		dst = appendU64(dst, v.ShardID)
		dst = appendU64(dst, v.Accepted)
		dst = appendU64(dst, v.Rejected)
		dst = appendU64(dst, v.Active)
		dst = appendU64(dst, v.Completed)
		dst = appendU64(dst, v.Errored)
		dst = appendU64(dst, v.Panics)
		dst = appendU64(dst, v.Parked)
		dst = appendU64(dst, v.Resumed)
		dst = appendU64(dst, v.ResumeMisses)
		dst = appendU64(dst, v.Discarded)
		dst = appendU64(dst, v.Detached)
		dst = appendU64(dst, v.FramesIn)
		dst = appendU64(dst, v.FramesOut)
		dst = appendU64(dst, v.Decisions)
	case TypeRouteTable:
		v := &f.RouteTable
		if len(v.Shards) > maxRouteEntries {
			return nil, fmt.Errorf("wire: route table with %d shards exceeds the %d-entry frame bound", len(v.Shards), maxRouteEntries)
		}
		dst = appendU64(dst, v.Epoch)
		dst = appendI64(dst, v.Seed)
		dst = binary.BigEndian.AppendUint32(dst, v.Vnodes)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(v.Shards)))
		for _, e := range v.Shards {
			dst = appendU64(dst, e.ShardID)
			if dst, err = appendString(dst, e.Addr); err != nil {
				return nil, err
			}
		}
	case TypeBusy:
		dst = appendDur(dst, f.Busy.RetryAfter)
		dst = append(dst, byte(f.Busy.Reason))
	case TypeRedirect:
		if dst, err = appendString(dst, f.Redirect.Addr); err != nil {
			return nil, err
		}
	case TypeShardOverload:
		v := &f.ShardOverload
		dst = appendU64(dst, v.ShardID)
		dst = appendU64(dst, v.Refused)
		dst = appendU64(dst, v.Shed)
		dst = appendU64(dst, v.BusySent)
	default:
		return nil, fmt.Errorf("wire: cannot encode message type %d", uint8(f.Type))
	}
	payload := len(dst) - bodyFrom + 2 // version + type bytes
	if payload > MaxPayload {
		return nil, fmt.Errorf("wire: frame payload %d exceeds MaxPayload %d", payload, MaxPayload)
	}
	binary.BigEndian.PutUint32(dst[frameFrom:], uint32(payload))
	return dst, nil
}

// Encode encodes m as one self-contained frame.
func Encode(m Message) ([]byte, error) {
	return Append(nil, m)
}

// Decode decodes the first frame of b, returning the message and the
// number of bytes consumed; it is Frame.Decode into a fresh frame.
func Decode(b []byte) (Message, int, error) {
	var f Frame
	n, err := f.Decode(b)
	if err != nil {
		return nil, 0, err
	}
	return f.message(), n, nil
}

// Decode decodes the first frame of b into f, returning the number of
// bytes consumed. It never panics on hostile input: every length is
// checked before use, the declared payload must be entirely consumed, and
// the frame is rejected if it is not the canonical encoding of the
// decoded message. On error f holds no message (Type 0).
//
//etrain:hotpath
func (f *Frame) Decode(b []byte) (int, error) {
	f.Type = 0
	if len(b) < headerSize {
		return 0, fmt.Errorf("wire: short frame header: %d bytes", len(b))
	}
	payload, err := checkHeader(b)
	if err != nil {
		return 0, err
	}
	total := int(payload) + 4
	if len(b) < total {
		return 0, fmt.Errorf("wire: truncated frame: have %d of %d bytes", len(b), total)
	}
	if b[4] != Version {
		return 0, fmt.Errorf("wire: version %d, want %d", b[4], Version)
	}
	if err := f.decodeBody(Type(b[5]), b[headerSize:total]); err != nil {
		return 0, err
	}
	return total, nil
}

// checkHeader validates a frame header's payload length, returning it.
func checkHeader(h []byte) (uint32, error) {
	payload := binary.BigEndian.Uint32(h)
	if payload < 2 {
		return 0, fmt.Errorf("wire: payload length %d below version+type minimum", payload)
	}
	if payload > MaxPayload {
		return 0, fmt.Errorf("wire: payload length %d exceeds MaxPayload %d", payload, MaxPayload)
	}
	return payload, nil
}

// decodeBody decodes one message body into f. The body must be consumed
// exactly. A Decision or RouteTable reuses the capacity f already holds.
//
//etrain:hotpath
func (f *Frame) decodeBody(typ Type, body []byte) error {
	d := decoder{b: body}
	switch typ {
	case TypeHello:
		f.Hello = Hello{
			DeviceID: d.u64(),
			Seed:     d.i64(),
			Theta:    d.f64(),
			K:        d.u32(),
			Slot:     d.dur(),
			Horizon:  d.dur(),
		}
	case TypeHeartbeatObserved:
		f.Heartbeat = HeartbeatObserved{At: d.dur(), App: d.str(), Size: d.i64()}
	case TypeCargoArrival:
		f.Cargo = CargoArrival{
			ID:       d.u64(),
			At:       d.dur(),
			App:      d.str(),
			Size:     d.i64(),
			Profile:  profile.Kind(d.u8()),
			Deadline: d.dur(),
		}
	case TypeDecision:
		v := &f.Decision
		v.Slot, v.Flush = d.dur(), d.bool()
		v.Entries = v.Entries[:0]
		n := int(d.u16())
		if d.err == nil && n > 0 {
			if n > maxEntries || len(d.b)-d.off < n*16 {
				return fmt.Errorf("wire: decision entry count %d exceeds remaining body", n)
			}
			v.Entries = slices.Grow(v.Entries, n)[:n]
			for i := range v.Entries {
				v.Entries[i] = DecisionEntry{ID: d.u64(), Start: d.dur()}
			}
		}
	case TypeAck:
		f.Ack = Ack{Seq: d.u64()}
	case TypeResume:
		f.Resume = Resume{DeviceID: d.u64(), Token: d.u64(), Got: d.u64()}
	case TypeResumeOK:
		f.ResumeOK = ResumeOK{Got: d.u64()}
	case TypeStatsSnapshot:
		f.Stats = StatsSnapshot{
			DeviceID:       d.u64(),
			EnergyJ:        d.f64(),
			AvgDelayS:      d.f64(),
			ViolationRatio: d.f64(),
			DataPackets:    d.u64(),
			Heartbeats:     d.u64(),
			ForcedFlush:    d.u64(),
		}
	case TypeShardHello:
		f.ShardHello = ShardHello{ShardID: d.u64(), Addr: d.str()}
	case TypeShardBeat:
		f.ShardBeat = ShardBeat{ShardID: d.u64(), Seq: d.u64()}
	case TypeShardStats:
		f.ShardStats = ShardStats{
			ShardID:      d.u64(),
			Accepted:     d.u64(),
			Rejected:     d.u64(),
			Active:       d.u64(),
			Completed:    d.u64(),
			Errored:      d.u64(),
			Panics:       d.u64(),
			Parked:       d.u64(),
			Resumed:      d.u64(),
			ResumeMisses: d.u64(),
			Discarded:    d.u64(),
			Detached:     d.u64(),
			FramesIn:     d.u64(),
			FramesOut:    d.u64(),
			Decisions:    d.u64(),
		}
	case TypeRouteTable:
		v := &f.RouteTable
		v.Epoch, v.Seed, v.Vnodes = d.u64(), d.i64(), d.u32()
		v.Shards = v.Shards[:0]
		n := int(d.u16())
		if d.err == nil && n > 0 {
			if n > maxRouteEntries || len(d.b)-d.off < n*10 {
				return fmt.Errorf("wire: route table shard count %d exceeds remaining body", n)
			}
			v.Shards = slices.Grow(v.Shards, n)[:n]
			for i := range v.Shards {
				v.Shards[i] = RouteEntry{ShardID: d.u64(), Addr: d.str()}
			}
		}
	case TypeBusy:
		f.Busy = Busy{RetryAfter: d.dur(), Reason: BusyReason(d.u8())}
	case TypeRedirect:
		f.Redirect = Redirect{Addr: d.str()}
	case TypeShardOverload:
		f.ShardOverload = ShardOverload{
			ShardID:  d.u64(),
			Refused:  d.u64(),
			Shed:     d.u64(),
			BusySent: d.u64(),
		}
	default:
		return fmt.Errorf("wire: unknown message type %d", uint8(typ))
	}
	if d.err != nil {
		return fmt.Errorf("wire: %s: %w", typ, d.err)
	}
	if d.off != len(d.b) {
		return fmt.Errorf("wire: %s: %d trailing body bytes", typ, len(d.b)-d.off)
	}
	f.Type = typ
	return nil
}

// decoder is a bounds-checked cursor over a frame body. The first failed
// read latches err; subsequent reads return zero values, so message
// decoding reads fields unconditionally and checks err once.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b)-d.off < n {
		d.err = fmt.Errorf("truncated body at offset %d: need %d bytes, have %d", d.off, n, len(d.b)-d.off)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) bool() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.err = fmt.Errorf("non-canonical boolean at offset %d", d.off-1)
		}
		return false
	}
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) i64() int64         { return int64(d.u64()) }
func (d *decoder) dur() time.Duration { return time.Duration(d.i64()) }
func (d *decoder) f64() float64       { return math.Float64frombits(d.u64()) }

func (d *decoder) str() string {
	n := int(d.u16())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return intern(b)
}

// internTable holds the canonical spellings of the app names that appear in
// virtually every frame of a session stream (the heartbeat trains of
// internal/heartbeat and the cargo apps of internal/workload). The table is
// fixed at init, never grown from wire input, so hostile streams cannot
// inflate it.
var internTable = map[string]string{
	"qq":       "qq",
	"wechat":   "wechat",
	"whatsapp": "whatsapp",
	"renren":   "renren",
	"netease":  "netease",
	"apns":     "apns",
	"mail":     "mail",
	"weibo":    "weibo",
	"cloud":    "cloud",
}

// intern returns the canonical string for b, avoiding an allocation for the
// well-known app names that dominate decoded frames. Unknown names are
// copied as usual.
func intern(b []byte) string {
	// The map index with a string(b) key does not allocate.
	if s, ok := internTable[string(b)]; ok {
		return s
	}
	return string(b)
}

func appendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }
func appendI64(dst []byte, v int64) []byte  { return appendU64(dst, uint64(v)) }
func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}
func appendDur(dst []byte, v time.Duration) []byte { return appendI64(dst, int64(v)) }

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return nil, fmt.Errorf("wire: string of %d bytes exceeds the uint16 length prefix", len(s))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

// ErrTruncated reports a frame cut off mid-stream: the connection ended
// (or errored) between a frame's first byte and its last. Errors returned
// by Reader.Next for torn frames match it via errors.Is, and also match
// io.ErrUnexpectedEOF so io.ReadFull-style callers keep working. A
// truncated frame is a transport fault, not a protocol violation — a
// resuming client replays it in full on the next connection.
var ErrTruncated = errors.New("wire: truncated frame")

// truncErr is the concrete truncation error: where in the frame the
// stream ended, matching both ErrTruncated and io.ErrUnexpectedEOF.
type truncErr struct {
	section string // "header" or "body"
	cause   error
}

func (e *truncErr) Error() string {
	return fmt.Sprintf("wire: truncated frame %s: %v", e.section, e.cause)
}

func (e *truncErr) Is(target error) bool {
	return target == ErrTruncated || target == io.ErrUnexpectedEOF
}

func (e *truncErr) Unwrap() error { return e.cause }

// Reader decodes a frame stream from an io.Reader, reusing one body
// buffer across frames and, through Reset, across streams.
type Reader struct {
	r      io.Reader
	header [headerSize]byte
	body   []byte
}

// NewReader returns a frame reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// Reset retargets the reader at r, keeping its body buffer for reuse.
func (fr *Reader) Reset(r io.Reader) {
	fr.r = r
}

// Next reads and decodes the next frame; it is ReadFrame into a fresh
// frame.
func (fr *Reader) Next() (Message, error) {
	var f Frame
	if err := fr.ReadFrame(&f); err != nil {
		return nil, err
	}
	return f.message(), nil
}

// ReadFrame reads the next frame and decodes it into f. It returns io.EOF
// only on a clean frame boundary; a stream that ends (or errors)
// mid-frame yields an error matching ErrTruncated (and
// io.ErrUnexpectedEOF) — never a hang and never a misparse of the partial
// bytes. Each frame costs two reads of the underlying reader, header then
// body, so an unbuffered stream sees the same read calls however it is
// decoded.
//
//etrain:hotpath
func (fr *Reader) ReadFrame(f *Frame) error {
	f.Type = 0
	if n, err := io.ReadFull(fr.r, fr.header[:]); err != nil {
		if n == 0 && err == io.EOF {
			return io.EOF
		}
		return &truncErr{section: "header", cause: err}
	}
	payload, err := checkHeader(fr.header[:])
	if err != nil {
		return err
	}
	if fr.header[4] != Version {
		return fmt.Errorf("wire: version %d, want %d", fr.header[4], Version)
	}
	bodyLen := int(payload) - 2
	if cap(fr.body) < bodyLen {
		fr.body = make([]byte, bodyLen)
	}
	fr.body = fr.body[:bodyLen]
	if _, err := io.ReadFull(fr.r, fr.body); err != nil {
		return &truncErr{section: "body", cause: err}
	}
	return f.decodeBody(Type(fr.header[5]), fr.body)
}

// Writer encodes frames onto an io.Writer. Frames accumulate in one
// reused buffer until Flush hands the whole batch to the underlying
// writer in a single Write call, so a batch costs one syscall and no
// steady-state allocation. A batch holds whole frames only: its bytes
// are exactly those of the same frames written one by one.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter returns a frame writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// Buffer encodes m onto the pending batch without writing it; it is
// BufferFrame of m. An encoding error leaves the batch as it was.
func (fw *Writer) Buffer(m Message) error {
	var f Frame
	if !f.set(m) {
		return fmt.Errorf("wire: cannot encode message type %T", m)
	}
	return fw.BufferFrame(&f)
}

// BufferFrame encodes f onto the pending batch without writing it. An
// encoding error leaves the batch as it was.
//
//etrain:hotpath
func (fw *Writer) BufferFrame(f *Frame) error {
	b, err := f.Append(fw.buf)
	if err != nil {
		return err
	}
	fw.buf = b
	return nil
}

// Buffered returns the number of pending bytes.
func (fw *Writer) Buffered() int { return len(fw.buf) }

// Flush writes the pending batch with one Write call and empties it; an
// empty batch makes no call. Short writes without an error — a conn that
// accepts one byte at a time, a transport that fragments — are retried
// until the batch is fully delivered, so the byte stream stays canonical
// regardless of how the underlying writer chunks; a short write with no
// progress at all is reported as io.ErrShortWrite. The batch is dropped
// on error too: the transport is broken and the caller owns recovery.
//
//etrain:hotpath
func (fw *Writer) Flush() error {
	b := fw.buf
	fw.buf = fw.buf[:0]
	for len(b) > 0 {
		n, err := fw.w.Write(b)
		if err != nil {
			return err
		}
		if n <= 0 {
			return io.ErrShortWrite
		}
		b = b[n:]
	}
	return nil
}

// Reset drops the pending batch and retargets the writer at w, keeping
// the buffer's capacity for reuse.
func (fw *Writer) Reset(w io.Writer) {
	fw.w = w
	fw.buf = fw.buf[:0]
}

// Write encodes m and writes it, together with any pending batch: Buffer
// then Flush.
func (fw *Writer) Write(m Message) error {
	if err := fw.Buffer(m); err != nil {
		return err
	}
	return fw.Flush()
}

// WriteFrame encodes f and writes it, together with any pending batch:
// BufferFrame then Flush.
//
//etrain:hotpath
func (fw *Writer) WriteFrame(f *Frame) error {
	if err := fw.BufferFrame(f); err != nil {
		return err
	}
	return fw.Flush()
}
