package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
	"time"
)

// staleFrame returns a frame that has held longer messages of the
// variable-length kinds, as a reader's frame has after earlier frames.
func staleFrame() *Frame {
	f := &Frame{Type: TypeDecision}
	for i := 0; i < 8; i++ {
		f.Decision.Entries = append(f.Decision.Entries, DecisionEntry{ID: uint64(i + 100), Start: time.Duration(i)})
		f.RouteTable.Shards = append(f.RouteTable.Shards, RouteEntry{ShardID: uint64(i + 100), Addr: "stale:1"})
	}
	f.Decision.Slot, f.Decision.Flush = time.Hour, true
	f.Heartbeat.App, f.Cargo.App = "stale", "stale"
	return f
}

// FuzzDecodeFrame asserts codec robustness (mirroring tracefile's
// FuzzParseTrace): arbitrary bytes must decode into a valid message or
// fail with an error — never panic, never over-allocate on a hostile
// length prefix. Any frame Decode accepts must re-encode to exactly the
// bytes consumed (canonical encoding), and the stream Reader must agree
// with Decode on the same bytes. The by-value decoder, Frame.Decode and
// Reader.ReadFrame, must accept exactly what Decode accepts and yield the
// same message, into a fresh frame and into one that held longer
// messages alike — a Decision or RouteTable decoded there carries no
// stale entries — and encoding the frame must reproduce the consumed
// bytes. The seeds include a frame of each retired type, which every
// decoder must reject. Seeds beyond the f.Add calls — one valid frame per
// message type plus near-miss corruptions — are checked in under
// testdata/fuzz/FuzzDecodeFrame.
func FuzzDecodeFrame(f *testing.F) {
	for _, tc := range goldenFrames {
		b, err := Append(nil, tc.msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, rf := range retiredFrames {
		b, err := hex.DecodeString(rf.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, Version, byte(TypeAck)})
	f.Add([]byte{0, 0, 0, 2, Version, byte(TypeDecision)})
	f.Fuzz(func(t *testing.T, input []byte) {
		m, n, err := Decode(input)
		r := NewReader(bytes.NewReader(input))
		rm, rerr := r.Next()
		var fresh Frame
		fn, ferr := fresh.Decode(input)
		stale := staleFrame()
		sn, serr := stale.Decode(input)
		read := staleFrame()
		readErr := NewReader(bytes.NewReader(input)).ReadFrame(read)
		if err != nil {
			if rerr == nil {
				t.Fatalf("Decode rejected but Reader accepted %x: %#v", input, rm)
			}
			if ferr == nil || serr == nil || readErr == nil {
				t.Fatalf("Decode rejected %x but the frame decoders accepted it (fresh %v, reused %v, reader %v)", input, ferr, serr, readErr)
			}
			if fresh.Type != 0 || stale.Type != 0 || read.Type != 0 {
				t.Fatalf("a rejected frame left types %v, %v, %v set", fresh.Type, stale.Type, read.Type)
			}
			return
		}
		if n <= 0 || n > len(input) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(input))
		}
		// Canonical encoding: re-encoding the decoded message must
		// reproduce the consumed bytes exactly.
		re, eerr := Append(nil, m)
		if eerr != nil {
			t.Fatalf("accepted frame does not re-encode: %v", eerr)
		}
		if !bytes.Equal(re, input[:n]) {
			t.Fatalf("non-canonical frame accepted:\n in %x\nout %x", input[:n], re)
		}
		// The stream reader must accept the same first frame.
		if rerr != nil {
			t.Fatalf("Decode accepted but Reader rejected %x: %v", input[:n], rerr)
		}
		rb, err := Append(nil, rm)
		if err != nil || !bytes.Equal(rb, re) {
			t.Fatalf("Reader decoded %#v, Decode decoded %#v", rm, m)
		}
		// The by-value decoders accept the same frame, consume the same
		// bytes and hold the same message; encoding the frame reproduces
		// the bytes.
		if ferr != nil || serr != nil || readErr != nil {
			t.Fatalf("Decode accepted %x but the frame decoders rejected it (fresh %v, reused %v, reader %v)", input[:n], ferr, serr, readErr)
		}
		if fn != n || sn != n {
			t.Fatalf("Decode consumed %d bytes, the frame decoders %d (fresh) and %d (reused)", n, fn, sn)
		}
		// Same message, compared by encoding: NaN fields are unequal to
		// themselves but encode to the same bits.
		if fb, err := Append(nil, fresh.message()); err != nil || reflect.TypeOf(fresh.message()) != reflect.TypeOf(m) || !bytes.Equal(fb, re) {
			t.Fatalf("Frame.Decode holds %#v, Decode decoded %#v", fresh.message(), m)
		}
		for _, fr := range []*Frame{&fresh, stale, read} {
			b, err := fr.Append(nil)
			if err != nil || !bytes.Equal(b, input[:n]) {
				t.Fatalf("the decoded frame encodes to %x (%v), want %x", b, err, input[:n])
			}
			switch v := m.(type) {
			case Decision:
				if len(fr.Decision.Entries) != len(v.Entries) {
					t.Fatalf("a decision of %d entries decodes to %d", len(v.Entries), len(fr.Decision.Entries))
				}
			case RouteTable:
				if len(fr.RouteTable.Shards) != len(v.Shards) {
					t.Fatalf("a route table of %d shards decodes to %d", len(v.Shards), len(fr.RouteTable.Shards))
				}
			}
		}
	})
}
