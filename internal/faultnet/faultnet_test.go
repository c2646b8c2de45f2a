package faultnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
)

// chatter pushes total bytes through a wrapped pipe, returning how many
// arrived and the first error each side saw. The reader drains from its
// own goroutine so synchronous transports cannot deadlock.
func chatter(w net.Conn, r net.Conn, total int) (arrived int, writeErr, readErr error) {
	done := make(chan struct{})
	var got int
	var rerr error
	go func() {
		defer close(done)
		buf := make([]byte, 256)
		for {
			n, err := r.Read(buf)
			got += n
			if err != nil {
				rerr = err
				return
			}
			if got >= total {
				return
			}
		}
	}()
	payload := bytes.Repeat([]byte{0xAB}, total)
	_, writeErr = w.Write(payload)
	w.Close()
	<-done
	return got, writeErr, rerr
}

// faultTrace records the observable outcome of one scripted exchange so
// runs can be compared for determinism.
func faultTrace(t *testing.T, seed int64, cfg Config) string {
	t.Helper()
	cfg.Seed = seed
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for connID := uint64(0); connID < 8; connID++ {
		a, b := net.Pipe()
		wa := in.Wrap(a, connID)
		wb := in.Wrap(b, connID, 99)
		n, werr, rerr := chatter(wa, wb, 1024)
		out = append(out, fmt.Sprintf("conn%d: n=%d write=%v read=%v", connID, n, werr, rerr))
		wa.Close()
		wb.Close()
	}
	s := in.Stats()
	out = append(out, fmt.Sprintf("stats: drops=%d resets=%d truncations=%d", s.Drops, s.Resets, s.Truncations))
	return fmt.Sprint(out)
}

// TestDeterministicSchedule verifies the full fault schedule is a pure
// function of the seed: same seed, same trace; different seed, a
// different one.
func TestDeterministicSchedule(t *testing.T) {
	cfg := Config{Drop: 0.05, Reset: 0.05, Truncate: 0.05, MaxChunk: 7}
	a := faultTrace(t, 1, cfg)
	b := faultTrace(t, 1, cfg)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	c := faultTrace(t, 2, cfg)
	if a == c {
		t.Fatalf("different seeds produced identical fault traces:\n%s", a)
	}
}

// TestNoFaultsPassThrough verifies a zero-rate injector neither wraps
// nor corrupts.
func TestNoFaultsPassThrough(t *testing.T) {
	in, err := New(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	if in.Wrap(a, 1) != a {
		t.Error("zero-rate Wrap returned a new conn, want pass-through")
	}
	n, werr, rerr := chatter(in.Wrap(a, 1), in.Wrap(b, 2), 512)
	if n != 512 || werr != nil {
		t.Errorf("clean transfer: n=%d write=%v read=%v", n, werr, rerr)
	}
	if s := in.Stats(); s.Wrapped != 0 {
		t.Errorf("wrapped = %d, want 0", s.Wrapped)
	}
}

// TestChunkingPreservesBytes verifies MaxChunk fragments traffic without
// loss or reordering.
func TestChunkingPreservesBytes(t *testing.T) {
	in, err := New(Config{Seed: 3, MaxChunk: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	wa, wb := in.Wrap(a, 0), in.Wrap(b, 1)
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i)
	}
	got := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(wb)
		got <- data
	}()
	if _, err := wa.Write(payload); err != nil {
		t.Fatal(err)
	}
	wa.Close()
	if data := <-got; !bytes.Equal(data, payload) {
		t.Fatalf("chunked transfer corrupted: %d bytes, want %d intact", len(data), len(payload))
	}
}

// TestResetIsNetError verifies injected resets surface as a non-timeout
// net.Error and kill the conn for the peer too.
func TestResetIsNetError(t *testing.T) {
	in, err := New(Config{Seed: 5, Reset: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	defer b.Close()
	wa := in.Wrap(a, 0)
	_, werr := wa.Write([]byte("x"))
	if !errors.Is(werr, ErrReset) {
		t.Fatalf("write error %v, want ErrReset", werr)
	}
	var nerr net.Error
	if !errors.As(werr, &nerr) || nerr.Timeout() {
		t.Fatalf("reset %v is not a non-timeout net.Error", werr)
	}
	// The kill closed the underlying conn: the peer's read fails.
	if _, err := b.Read(make([]byte, 1)); err == nil {
		t.Error("peer read succeeded after reset, want closed")
	}
}

// TestTruncateDeliversPrefix verifies a truncation delivers a strict,
// nonempty prefix before the reset — a torn frame, not a clean cut.
func TestTruncateDeliversPrefix(t *testing.T) {
	in, err := New(Config{Seed: 11, Truncate: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	wa := in.Wrap(a, 0)
	got := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(b)
		got <- data
	}()
	payload := bytes.Repeat([]byte{0xCD}, 64)
	n, werr := wa.Write(payload)
	if !errors.Is(werr, ErrReset) {
		t.Fatalf("write error %v, want ErrReset", werr)
	}
	if n <= 0 || n >= len(payload) {
		t.Fatalf("truncation wrote %d of %d bytes, want strict nonempty prefix", n, len(payload))
	}
	data := <-got
	if !bytes.Equal(data, payload[:len(data)]) {
		t.Fatal("delivered bytes are not a prefix of the payload")
	}
	if s := in.Stats(); s.Truncations != 1 {
		t.Errorf("truncations = %d, want 1", s.Truncations)
	}
}

// TestDialerConnectFail verifies dial failures follow the configured
// rate deterministically and successful dials produce wrapped conns.
func TestDialerConnectFail(t *testing.T) {
	in, err := New(Config{Seed: 13, ConnectFail: 0.5, MaxChunk: 4})
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	dial := in.Dialer(func() (net.Conn, error) {
		a, b := net.Pipe()
		conns = append(conns, a, b)
		return a, nil
	}, 42)
	fails := 0
	for i := 0; i < 40; i++ {
		conn, err := dial()
		if err != nil {
			if !errors.Is(err, ErrReset) {
				t.Fatalf("dial failure %v does not wrap ErrReset", err)
			}
			fails++
			continue
		}
		if conn == conns[len(conns)-2] {
			t.Fatal("successful dial returned the raw conn, want fault-wrapped")
		}
	}
	if fails == 0 || fails == 40 {
		t.Fatalf("connect-fail rate 0.5 produced %d/40 failures", fails)
	}
	if s := in.Stats(); s.DialFails != uint64(fails) {
		t.Errorf("DialFails = %d, want %d", s.DialFails, fails)
	}
	for _, c := range conns {
		c.Close()
	}
}

// TestConfigValidation rejects out-of-range rates.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Drop: -0.1},
		{Reset: 1.5},
		{Truncate: 2},
		{ConnectFail: -1},
		{MaxChunk: -1},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid config", cfg)
		}
	}
}
