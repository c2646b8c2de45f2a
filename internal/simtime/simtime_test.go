package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestRunFiresInTimeOrder(t *testing.T) {
	l := NewLoop()
	var fired []time.Duration
	for _, at := range []time.Duration{5 * time.Second, time.Second, 3 * time.Second} {
		l.Schedule(at, func(now time.Duration) { fired = append(fired, now) })
	}
	l.Run(10 * time.Second)
	want := []time.Duration{time.Second, 3 * time.Second, 5 * time.Second}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("event %d fired at %v, want %v", i, fired[i], want[i])
		}
	}
}

func TestRunSameInstantFIFO(t *testing.T) {
	l := NewLoop()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		l.Schedule(time.Second, func(time.Duration) { order = append(order, i) })
	}
	l.Run(2 * time.Second)
	for i, got := range order {
		if got != i {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	l := NewLoop()
	fired := 0
	l.Schedule(time.Second, func(time.Duration) { fired++ })
	l.Schedule(5*time.Second, func(time.Duration) { fired++ })
	l.Run(3 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (event beyond horizon must not fire)", fired)
	}
	if l.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want horizon 3s", l.Now())
	}
	if n := len(l.queue); n != 1 {
		t.Fatalf("pending = %d, want 1", n)
	}
}

func TestEventAtHorizonDoesNotFire(t *testing.T) {
	l := NewLoop()
	fired := false
	l.Schedule(3*time.Second, func(time.Duration) { fired = true })
	l.Run(3 * time.Second)
	if fired {
		t.Fatal("event exactly at horizon fired; horizon is exclusive")
	}
}

func TestScheduleInPastClampsToNow(t *testing.T) {
	l := NewLoop()
	var fireTime time.Duration
	l.Schedule(2*time.Second, func(now time.Duration) {
		l.Schedule(time.Second, func(inner time.Duration) { fireTime = inner })
	})
	l.Run(10 * time.Second)
	if fireTime != 2*time.Second {
		t.Fatalf("past-scheduled event fired at %v, want clamped 2s", fireTime)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	l := NewLoop()
	count := 0
	var chain func(now time.Duration)
	chain = func(now time.Duration) {
		count++
		if count < 10 {
			l.Schedule(now+time.Second, chain)
		}
	}
	l.Schedule(0, chain)
	l.Run(time.Minute)
	if count != 10 {
		t.Fatalf("chain fired %d times, want 10", count)
	}
}

func TestAlarmRepeats(t *testing.T) {
	l := NewLoop()
	var fires []time.Duration
	NewAlarm(l, 10*time.Second, 30*time.Second, func(now time.Duration) {
		fires = append(fires, now)
	})
	l.Run(2 * time.Minute)
	want := []time.Duration{10 * time.Second, 40 * time.Second, 70 * time.Second, 100 * time.Second}
	if len(fires) != len(want) {
		t.Fatalf("alarm fired %d times (%v), want %d", len(fires), fires, len(want))
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("firing %d at %v, want %v", i, fires[i], want[i])
		}
	}
}

func TestAlarmSetInterval(t *testing.T) {
	l := NewLoop()
	var fires []time.Duration
	var a *Alarm
	a = NewAlarm(l, 0, 10*time.Second, func(now time.Duration) {
		fires = append(fires, now)
		if len(fires) == 2 {
			a.SetInterval(20 * time.Second)
		}
	})
	l.Run(time.Minute)
	want := []time.Duration{0, 10 * time.Second, 30 * time.Second, 50 * time.Second}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
}

func TestOneShotAlarm(t *testing.T) {
	l := NewLoop()
	fires := 0
	NewAlarm(l, time.Second, 0, func(time.Duration) { fires++ })
	l.Run(time.Minute)
	if fires != 1 {
		t.Fatalf("one-shot alarm fired %d times, want 1", fires)
	}
}

func TestQueueOrderingProperty(t *testing.T) {
	prop := func(offsets []uint16) bool {
		l := NewLoop()
		var fired []time.Duration
		for _, off := range offsets {
			at := time.Duration(off) * time.Millisecond
			l.Schedule(at, func(now time.Duration) { fired = append(fired, now) })
		}
		l.Run(time.Duration(1<<16) * time.Millisecond)
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
