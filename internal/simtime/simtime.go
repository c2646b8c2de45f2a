// Package simtime provides the virtual-time foundation of the eTrain
// simulator: a discrete-event loop with a deterministic event queue and an
// AlarmManager-style repeating alarm facility.
//
// All simulated components express time as a time.Duration offset from the
// start of the run. Events scheduled for the same instant fire in the order
// they were scheduled, which keeps runs fully reproducible.
package simtime

import (
	"container/heap"
	"time"
)

// Event is a callback scheduled to fire at a virtual instant. The loop passes
// the firing time (which equals the scheduled time).
type Event func(now time.Duration)

type queuedEvent struct {
	at   time.Duration
	seq  uint64
	fire Event
}

type eventQueue []*queuedEvent

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) {
	ev, ok := x.(*queuedEvent)
	if !ok {
		return
	}
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Loop is a single-threaded discrete-event simulation loop.
type Loop struct {
	now   time.Duration
	queue eventQueue
	seq   uint64
}

// NewLoop returns a loop positioned at virtual time zero.
func NewLoop() *Loop {
	return &Loop{}
}

// Now returns the current virtual time.
func (l *Loop) Now() time.Duration { return l.now }

// Schedule enqueues fire to run at the absolute virtual instant at. Instants
// in the past (before Now) are clamped to Now, i.e. they fire next.
func (l *Loop) Schedule(at time.Duration, fire Event) {
	if at < l.now {
		at = l.now
	}
	l.seq++
	heap.Push(&l.queue, &queuedEvent{at: at, seq: l.seq, fire: fire})
}

// Run executes events in time order until the queue drains or the next event
// would fire at or beyond horizon. The clock finishes at horizon.
func (l *Loop) Run(horizon time.Duration) {
	for len(l.queue) > 0 {
		next := l.queue[0]
		if next.at >= horizon {
			break
		}
		popped, ok := heap.Pop(&l.queue).(*queuedEvent)
		if !ok {
			continue
		}
		l.now = popped.at
		popped.fire(l.now)
	}
	if l.now < horizon {
		l.now = horizon
	}
}
