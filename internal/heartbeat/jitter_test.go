package heartbeat

import (
	"testing"
	"time"

	"etrain/internal/randx"
)

func TestScheduleJitteredZeroJitterIdentity(t *testing.T) {
	app := WeChat()
	plain := app.Schedule(time.Hour, nil)
	jittered := app.ScheduleJittered(randx.New(1), time.Hour, 0)
	if len(plain) != len(jittered) {
		t.Fatalf("lengths differ: %d vs %d", len(plain), len(jittered))
	}
	for i := range plain {
		if plain[i].At != jittered[i].At {
			t.Fatalf("zero jitter changed beat %d", i)
		}
	}
}

func TestScheduleJitteredBounded(t *testing.T) {
	app := QQ()
	jitter := 5 * time.Second
	plain := app.Schedule(2*time.Hour, nil)
	jittered := app.ScheduleJittered(randx.New(2), 2*time.Hour, jitter)
	if len(plain) != len(jittered) {
		t.Fatalf("jitter changed beat count: %d vs %d", len(plain), len(jittered))
	}
	for i := range plain {
		diff := jittered[i].At - plain[i].At
		if diff < -jitter || diff > jitter {
			t.Fatalf("beat %d jittered by %v, want within ±%v", i, diff, jitter)
		}
	}
}

func TestScheduleJitteredMonotone(t *testing.T) {
	app := NetEase()
	jittered := app.ScheduleJittered(randx.New(3), 2*time.Hour, 20*time.Second)
	for i := 1; i < len(jittered); i++ {
		if jittered[i].At <= jittered[i-1].At {
			t.Fatalf("jittered schedule not strictly increasing at %d", i)
		}
	}
}

func TestScheduleJitteredDeterministic(t *testing.T) {
	app := WhatsApp()
	a := app.ScheduleJittered(randx.New(4), time.Hour, 3*time.Second)
	b := app.ScheduleJittered(randx.New(4), time.Hour, 3*time.Second)
	for i := range a {
		if a[i].At != b[i].At {
			t.Fatalf("jitter not deterministic at beat %d", i)
		}
	}
}

func TestMergeJitteredSorted(t *testing.T) {
	merged := MergeJittered(randx.New(5), DefaultTrio(), time.Hour, 10*time.Second)
	want := len(Merge(DefaultTrio(), time.Hour, nil))
	if len(merged) != want {
		t.Fatalf("merged %d beats, want %d", len(merged), want)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].At < merged[i-1].At {
			t.Fatalf("merged jittered schedule out of order at %d", i)
		}
	}
}
