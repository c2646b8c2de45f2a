package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"etrain/internal/sched"
	"etrain/internal/workload"
)

// span is one timed call into a layer, kept in memory until the run ends.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list; -1 for a root
	Device int64  `json:"device"`
}

// tracer records spans from any goroutine.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span starting now and returns its index.
func (t *tracer) begin(name string, parent int, device int64) int {
	return t.beginAt(name, parent, device, time.Now())
}

// beginAt opens a span starting at the given instant.
func (t *tracer) beginAt(name string, parent int, device int64, at time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(at.Sub(t.origin)), Parent: parent, Device: device})
	return len(t.spans) - 1
}

// end closes span i now.
func (t *tracer) end(i int) { t.endAt(i, time.Now()) }

// endAt closes span i at the given instant.
func (t *tracer) endAt(i int, at time.Time) {
	t.mu.Lock()
	t.spans[i].End = int64(at.Sub(t.origin))
	t.mu.Unlock()
}

// layerTime is the total and self time of every span of one name.
type layerTime struct {
	count int64
	total time.Duration
	self  time.Duration
}

// layers folds the spans into per-name totals. A span's self time is its
// duration minus its direct children's durations.
func (t *tracer) layers() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]*layerTime{}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.count++
		lt.total += d
		lt.self += d - child[i]
	}
	return out
}

// printLayers writes the span totals and self times as a table.
func printLayers(w io.Writer, ls map[string]*layerTime, per float64, unit string) {
	names := make([]string, 0, len(ls))
	for n := range ls {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n%-16s %10s %16s %16s   (spans; ns per %s)\n", "span", "count", "total", "self", unit)
	for _, n := range names {
		lt := ls[n]
		fmt.Fprintf(w, "%-16s %10d %16.0f %16.0f\n", n, lt.count, float64(lt.total)/per, float64(lt.self)/per)
	}
}

// write stores every span as one JSON object per line.
func (t *tracer) write(dir, name string) error {
	if dir == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// slotCount is the per-slot cost of one strategy, counted at the
// sched.Strategy boundary. Per-slot calls are too many to keep as spans or
// to time one by one, so a seeded random one in slotSample is timed and
// the rest only counted; the totals are reported as children of the sim
// spans.
type slotCount struct {
	ns    time.Duration // over the timed slots
	timed int64
	slots int64
	empty int64 // slots where the strategy selected nothing
	rng   uint64
}

// slotSample is the inverse of the fraction of slots timed.
const slotSample = 8

// perSlot returns the mean timed cost of one slot, less the part of a
// clock read that falls inside the timed interval.
func (c *slotCount) perSlot(inside float64) float64 {
	if c.timed == 0 {
		return 0
	}
	return float64(c.ns)/float64(c.timed) - inside
}

// timedStrategy wraps a strategy, times a sample of its Schedule calls
// and counts every call.
type timedStrategy struct {
	inner sched.Strategy
	c     *slotCount
}

func (s *timedStrategy) Name() string              { return s.inner.Name() }
func (s *timedStrategy) SlotLength() time.Duration { return s.inner.SlotLength() }

func (s *timedStrategy) Schedule(ctx *sched.SlotContext) []workload.Packet {
	c := s.c
	c.slots++
	c.rng ^= c.rng << 13 // xorshift64
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	var sel []workload.Packet
	if c.rng%slotSample == 0 {
		start := time.Now()
		sel = s.inner.Schedule(ctx)
		c.ns += time.Since(start)
		c.timed++
	} else {
		sel = s.inner.Schedule(ctx)
	}
	if len(sel) == 0 {
		c.empty++
	}
	return sel
}

// clockCost measures what timing one call adds: inside is the duration a
// timer reads around nothing, pair the whole cost of taking and adding up
// one reading. The traced run subtracts both from the per-slot figures.
func clockCost() (inside, pair float64) {
	const n = 200000
	var c slotCount
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		c.ns += time.Since(t0)
	}
	return float64(c.ns) / n, float64(time.Since(start)) / n
}
