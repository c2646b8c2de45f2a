package heartbeat

import (
	"testing"
	"testing/quick"
	"time"
)

func TestFixedCycleSchedule(t *testing.T) {
	app := TrainApp{Name: "x", PacketSize: 100, Policy: FixedCycle(300 * time.Second)}
	beats := app.Schedule(20*time.Minute, nil)
	if len(beats) != 4 {
		t.Fatalf("got %d beats in 20min at 300s cycle, want 4", len(beats))
	}
	for i, b := range beats {
		want := time.Duration(i) * 300 * time.Second
		if b.At != want {
			t.Fatalf("beat %d at %v, want %v", i, b.At, want)
		}
		if b.App != "x" || b.Size != 100 {
			t.Fatalf("beat metadata wrong: %+v", b)
		}
	}
}

func TestSchedulePhase(t *testing.T) {
	app := TrainApp{Name: "x", PacketSize: 1, Policy: FixedCycle(time.Minute), FirstAt: 10 * time.Second}
	beats := app.Schedule(2*time.Minute, nil)
	if len(beats) != 2 {
		t.Fatalf("got %d beats, want 2", len(beats))
	}
	if beats[0].At != 10*time.Second || beats[1].At != 70*time.Second {
		t.Fatalf("phased beats = %v, %v", beats[0].At, beats[1].At)
	}
}

func TestAdaptiveCycleNetEasePattern(t *testing.T) {
	// NetEase: 60 s initial, doubles after every 6 beats, caps at 480 s.
	p := NetEase().Policy
	wants := []struct {
		beatIndex int
		interval  time.Duration
	}{
		{0, 60 * time.Second},
		{5, 60 * time.Second},
		{6, 120 * time.Second},
		{11, 120 * time.Second},
		{12, 240 * time.Second},
		{18, 480 * time.Second},
		{24, 480 * time.Second}, // capped
		{100, 480 * time.Second},
	}
	for _, w := range wants {
		if got := p.IntervalAfter(w.beatIndex); got != w.interval {
			t.Fatalf("IntervalAfter(%d) = %v, want %v", w.beatIndex, got, w.interval)
		}
	}
}

func TestAdaptiveCycleNegativeIndex(t *testing.T) {
	p := NetEase().Policy
	if got := p.IntervalAfter(-5); got != 60*time.Second {
		t.Fatalf("IntervalAfter(-5) = %v, want initial 60s", got)
	}
}

func TestAdaptiveScheduleMonotone(t *testing.T) {
	beats := NetEase().Schedule(2*time.Hour, nil)
	if len(beats) < 10 {
		t.Fatalf("only %d NetEase beats in 2h", len(beats))
	}
	for i := 1; i < len(beats); i++ {
		gap := beats[i].At - beats[i-1].At
		prevGap := time.Duration(0)
		if i > 1 {
			prevGap = beats[i-1].At - beats[i-2].At
		}
		if gap < prevGap {
			t.Fatalf("NetEase gap shrank: %v after %v", gap, prevGap)
		}
		if gap > 480*time.Second {
			t.Fatalf("NetEase gap %v exceeds 480s cap", gap)
		}
	}
}

func TestBrokenPolicyDoesNotLoopForever(t *testing.T) {
	app := TrainApp{Name: "broken", PacketSize: 1, Policy: FixedCycle(0)}
	beats := app.Schedule(time.Hour, nil)
	if len(beats) != 1 {
		t.Fatalf("broken policy yielded %d beats, want 1", len(beats))
	}
}

func TestPaperCycles(t *testing.T) {
	tests := []struct {
		app   TrainApp
		cycle time.Duration
		size  int64
	}{
		{QQ(), 300 * time.Second, 378},
		{WeChat(), 270 * time.Second, 74},
		{WhatsApp(), 240 * time.Second, 66},
		{RenRen(), 300 * time.Second, 200},
		{APNS(), 1800 * time.Second, 120},
	}
	for _, tt := range tests {
		if got := tt.app.Policy.IntervalAfter(0); got != tt.cycle {
			t.Fatalf("%s cycle = %v, want %v", tt.app.Name, got, tt.cycle)
		}
		if tt.app.PacketSize != tt.size {
			t.Fatalf("%s size = %d, want %d", tt.app.Name, tt.app.PacketSize, tt.size)
		}
		if err := tt.app.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", tt.app.Name, err)
		}
	}
}

func TestMergeSortedAndComplete(t *testing.T) {
	apps := DefaultTrio()
	horizon := time.Hour
	merged := Merge(apps, horizon, nil)
	wantLen := 0
	for _, a := range apps {
		wantLen += len(a.Schedule(horizon, nil))
	}
	if len(merged) != wantLen {
		t.Fatalf("merged %d beats, want %d", len(merged), wantLen)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].At < merged[i-1].At {
			t.Fatalf("merged schedule out of order at %d", i)
		}
	}
}

func TestMergeEmpty(t *testing.T) {
	if got := Merge(nil, time.Hour, nil); got != nil {
		t.Fatalf("Merge(nil) = %v, want nil", got)
	}
}

func TestValidateRejectsBadApps(t *testing.T) {
	bad := []TrainApp{
		{Name: "", PacketSize: 1, Policy: FixedCycle(time.Second)},
		{Name: "a", PacketSize: 0, Policy: FixedCycle(time.Second)},
		{Name: "a", PacketSize: 1},
		{Name: "a", PacketSize: 1, Policy: FixedCycle(0)},
	}
	for i, app := range bad {
		if err := app.Validate(); err == nil {
			t.Fatalf("bad app %d validated", i)
		}
	}
}

func TestDetectorRecoverFixedCycles(t *testing.T) {
	d := NewDetector(2 * time.Second)
	for _, app := range DefaultTrio() {
		for _, b := range app.Schedule(time.Hour, nil) {
			d.Observe(b.App, b.At)
		}
	}
	tests := []struct {
		app   string
		cycle time.Duration
	}{
		{"qq", 300 * time.Second},
		{"wechat", 270 * time.Second},
		{"whatsapp", 240 * time.Second},
	}
	for _, tt := range tests {
		cycle, ok := d.Cycle(tt.app)
		if !ok {
			t.Fatalf("no cycle estimate for %s", tt.app)
		}
		if cycle != tt.cycle {
			t.Fatalf("%s cycle = %v, want %v", tt.app, cycle, tt.cycle)
		}
		if !d.Stable(tt.app) {
			t.Fatalf("%s should be detected as stable", tt.app)
		}
	}
}

func TestDetectorNetEaseUnstableRange(t *testing.T) {
	d := NewDetector(2 * time.Second)
	for _, b := range NetEase().Schedule(2*time.Hour, nil) {
		d.Observe(b.App, b.At)
	}
	if d.Stable("netease") {
		t.Fatal("NetEase's doubling cycle detected as stable")
	}
	min, max, ok := d.CycleRange("netease")
	if !ok {
		t.Fatal("no cycle range for netease")
	}
	if min != 60*time.Second || max != 480*time.Second {
		t.Fatalf("NetEase range = [%v, %v], want [60s, 480s]", min, max)
	}
}

func TestDetectorNeedsThreeBeats(t *testing.T) {
	d := NewDetector(time.Second)
	d.Observe("x", 0)
	d.Observe("x", time.Minute)
	if _, ok := d.Cycle("x"); ok {
		t.Fatal("cycle estimated from only two beats")
	}
	if _, ok := d.PredictNext("x"); ok {
		t.Fatal("prediction from only two beats")
	}
	d.Observe("x", 2*time.Minute)
	if _, ok := d.Cycle("x"); !ok {
		t.Fatal("no cycle after three beats")
	}
}

func TestDetectorPredictNext(t *testing.T) {
	d := NewDetector(time.Second)
	for i := 0; i < 5; i++ {
		d.Observe("qq", time.Duration(i)*300*time.Second)
	}
	next, ok := d.PredictNext("qq")
	if !ok {
		t.Fatal("no prediction")
	}
	if next != 5*300*time.Second {
		t.Fatalf("PredictNext = %v, want 1500s", next)
	}
}

func TestDetectorToleratesJitter(t *testing.T) {
	d := NewDetector(2 * time.Second)
	jitters := []time.Duration{0, 300 * time.Millisecond, -500 * time.Millisecond, time.Second, 0}
	at := time.Duration(0)
	for i := 0; i < len(jitters); i++ {
		d.Observe("j", at+jitters[i])
		at += 300 * time.Second
	}
	if !d.Stable("j") {
		t.Fatal("small jitter should still be stable")
	}
	cycle, _ := d.Cycle("j")
	if cycle < 298*time.Second || cycle > 302*time.Second {
		t.Fatalf("jittered cycle = %v, want ~300s", cycle)
	}
}

func TestDetectorApps(t *testing.T) {
	d := NewDetector(time.Second)
	d.Observe("b", 0)
	d.Observe("a", 0)
	apps := d.Apps()
	if len(apps) != 2 || apps[0] != "a" || apps[1] != "b" {
		t.Fatalf("Apps() = %v, want [a b]", apps)
	}
	if n := len(d.observed["a"]); n != 1 {
		t.Fatalf("observed %d beats of a, want 1", n)
	}
}

// Property: every schedule is strictly increasing and respects the horizon.
func TestScheduleProperty(t *testing.T) {
	prop := func(cycleSecs uint16, horizonMins uint8) bool {
		cycle := time.Duration(cycleSecs%1000+1) * time.Second
		horizon := time.Duration(horizonMins%120+1) * time.Minute
		app := TrainApp{Name: "p", PacketSize: 1, Policy: FixedCycle(cycle)}
		beats := app.Schedule(horizon, nil)
		for i, b := range beats {
			if b.At >= horizon {
				return false
			}
			if i > 0 && b.At <= beats[i-1].At {
				return false
			}
		}
		return len(beats) == int(horizon/cycle)+boolToInt(horizon%cycle != 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
