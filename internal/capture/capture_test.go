package capture

import (
	"testing"
	"time"

	"etrain/internal/heartbeat"
	"etrain/internal/radio"
	"etrain/internal/randx"
)

// mixedCapture builds an unlabeled capture of the default trio's
// heartbeats plus random-size data traffic, as a Wireshark session over a
// busy phone would record.
func mixedCapture(t *testing.T, horizon time.Duration, withNetEase bool) []Packet {
	t.Helper()
	apps := heartbeat.DefaultTrio()
	if withNetEase {
		apps = append(apps, heartbeat.NetEase())
	}
	var packets []Packet
	for _, b := range heartbeat.Merge(apps, horizon, nil) {
		packets = append(packets, Packet{At: b.At, Size: b.Size})
	}
	src := randx.New(9)
	for at := time.Duration(0); at < horizon; at += time.Duration(20+src.Intn(60)) * time.Second {
		packets = append(packets, Packet{
			At:   at,
			Size: int64(1000 + src.Intn(100000)), // data: random sizes
		})
	}
	return packets
}

func TestClassifyRecoversTrioCycles(t *testing.T) {
	packets := mixedCapture(t, 4*time.Hour, false)
	flows := Heartbeats(Classify(packets, Options{}))
	want := map[int64]time.Duration{
		378: 300 * time.Second, // QQ
		74:  270 * time.Second, // WeChat
		66:  240 * time.Second, // WhatsApp
	}
	found := 0
	for _, f := range flows {
		cycle, ok := want[f.Size]
		if !ok {
			continue
		}
		found++
		if f.Kind != FlowHeartbeat {
			t.Fatalf("size %d classified %v, want fixed heartbeat", f.Size, f.Kind)
		}
		if f.Cycle != cycle {
			t.Fatalf("size %d cycle %v, want %v", f.Size, f.Cycle, cycle)
		}
	}
	if found != len(want) {
		t.Fatalf("recovered %d of %d heartbeat flows from unlabeled capture", found, len(want))
	}
}

func TestClassifyIdentifiesNetEaseAsAdaptive(t *testing.T) {
	packets := mixedCapture(t, 4*time.Hour, true)
	flows := Heartbeats(Classify(packets, Options{}))
	for _, f := range flows {
		if f.Size == 150 { // NetEase's payload
			if f.Kind != FlowAdaptiveHeartbeat {
				t.Fatalf("NetEase classified %v, want adaptive", f.Kind)
			}
			if f.CycleMin != 60*time.Second || f.CycleMax != 480*time.Second {
				t.Fatalf("NetEase range %v-%v, want 60s-480s", f.CycleMin, f.CycleMax)
			}
			return
		}
	}
	t.Fatal("NetEase flow not found")
}

func TestClassifyDataStaysData(t *testing.T) {
	packets := mixedCapture(t, 2*time.Hour, false)
	for _, f := range Classify(packets, Options{}) {
		if f.Kind != FlowData {
			continue
		}
		// Data groups are random sizes: almost always singletons.
		if f.Count >= 4 && (f.Size == 378 || f.Size == 74 || f.Size == 66) {
			t.Fatalf("heartbeat size %d misclassified as data", f.Size)
		}
	}
}

func TestClassifyNoFalseHeartbeatsFromSparseData(t *testing.T) {
	src := randx.New(3)
	var packets []Packet
	// Pure random data: random sizes at random times.
	for i := 0; i < 200; i++ {
		packets = append(packets, Packet{
			At:   time.Duration(src.Intn(7200)) * time.Second,
			Size: int64(500 + src.Intn(200000)),
		})
	}
	flows := Heartbeats(Classify(packets, Options{}))
	if len(flows) != 0 {
		t.Fatalf("random data produced %d phantom heartbeat flows: %+v", len(flows), flows)
	}
}

func TestClassifyToleratesJitter(t *testing.T) {
	src := randx.New(4)
	app := heartbeat.WeChat()
	var packets []Packet
	for _, b := range app.ScheduleJittered(src, 4*time.Hour, 2*time.Second) {
		packets = append(packets, Packet{At: b.At, Size: b.Size})
	}
	flows := Heartbeats(Classify(packets, Options{}))
	if len(flows) != 1 {
		t.Fatalf("jittered WeChat not recovered: %+v", flows)
	}
	if diff := flows[0].Cycle - 270*time.Second; diff < -3*time.Second || diff > 3*time.Second {
		t.Fatalf("jittered cycle %v, want ~270s", flows[0].Cycle)
	}
}

func TestFromTimeline(t *testing.T) {
	tl := &radio.Timeline{}
	if err := tl.Append(radio.Transmission{
		Start: 5 * time.Second, TxTime: 100 * time.Millisecond,
		Size: 74, Kind: radio.TxHeartbeat, App: "wechat",
	}); err != nil {
		t.Fatal(err)
	}
	packets := FromTimeline(tl)
	if len(packets) != 1 || packets[0].Size != 74 || packets[0].At != 5*time.Second {
		t.Fatalf("FromTimeline = %+v", packets)
	}
}

func TestFlowKindString(t *testing.T) {
	tests := []struct {
		k    FlowKind
		want string
	}{
		{FlowHeartbeat, "heartbeat"},
		{FlowAdaptiveHeartbeat, "adaptive-heartbeat"},
		{FlowData, "data"},
		{FlowKind(9), "capture.FlowKind(9)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Fatalf("%d -> %q, want %q", int(tt.k), got, tt.want)
		}
	}
}

func TestClassifyEmptyCapture(t *testing.T) {
	if flows := Classify(nil, Options{}); len(flows) != 0 {
		t.Fatalf("empty capture produced flows: %v", flows)
	}
}
