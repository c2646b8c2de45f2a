package workload

import (
	"testing"
	"time"

	"etrain/internal/profile"
	"etrain/internal/randx"
)

func TestBehaviorStrings(t *testing.T) {
	tests := []struct {
		b    Behavior
		want string
	}{
		{BehaviorUpload, "upload"},
		{BehaviorDownload, "download"},
		{BehaviorBrowse, "browse"},
		{Behavior(9), "workload.Behavior(9)"},
	}
	for _, tt := range tests {
		if got := tt.b.String(); got != tt.want {
			t.Fatalf("Behavior(%d) = %q, want %q", int(tt.b), got, tt.want)
		}
	}
}

func TestParseBehaviorRoundTrip(t *testing.T) {
	for _, b := range []Behavior{BehaviorUpload, BehaviorDownload, BehaviorBrowse} {
		got, err := ParseBehavior(b.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != b {
			t.Fatalf("round trip %v -> %v", b, got)
		}
	}
	if _, err := ParseBehavior("nonsense"); err == nil {
		t.Fatal("parsed nonsense behavior")
	}
}

func TestClassifyBoundaries(t *testing.T) {
	mk := func(uploads int) []BehaviorRecord {
		var rs []BehaviorRecord
		for i := 0; i < uploads; i++ {
			rs = append(rs, BehaviorRecord{Behavior: BehaviorUpload})
		}
		rs = append(rs, BehaviorRecord{Behavior: BehaviorBrowse})
		return rs
	}
	tests := []struct {
		uploads int
		want    ActivenessClass
	}{
		{0, ClassInactive},
		{9, ClassInactive},
		{10, ClassModerate},
		{20, ClassModerate},
		{21, ClassActive},
		{40, ClassActive},
	}
	for _, tt := range tests {
		if got := Classify(mk(tt.uploads)); got != tt.want {
			t.Fatalf("Classify(%d uploads) = %v, want %v", tt.uploads, got, tt.want)
		}
	}
}

func TestSynthesizeUserMatchesClass(t *testing.T) {
	src := randx.New(9)
	for _, class := range []ActivenessClass{ClassActive, ClassModerate, ClassInactive} {
		for i := 0; i < 20; i++ {
			trace := SynthesizeUser(src, "u", class)
			if got := Classify(trace); got != class {
				t.Fatalf("synthesized %v classified as %v", class, got)
			}
		}
	}
}

func TestSynthesizeUserWithinSession(t *testing.T) {
	trace := SynthesizeUser(randx.New(10), "u", ClassActive)
	for i, r := range trace {
		if r.At < 0 || r.At >= SessionLength {
			t.Fatalf("record %d at %v outside session", i, r.At)
		}
		if i > 0 && r.At < trace[i-1].At {
			t.Fatalf("trace out of order at %d", i)
		}
		if r.UserID != "u" {
			t.Fatalf("record %d has user %q", i, r.UserID)
		}
	}
}

func TestPacketsFromTraceSkipsEmpty(t *testing.T) {
	records := []BehaviorRecord{
		{Behavior: BehaviorUpload, At: time.Second, Size: 2048},
		{Behavior: BehaviorBrowse, At: 2 * time.Second, Size: 0},
		{Behavior: BehaviorDownload, At: 3 * time.Second, Size: 4096},
	}
	prof := profile.Weibo(30 * time.Second)
	packets := PacketsFromTrace(records, prof)
	if len(packets) != 2 {
		t.Fatalf("got %d packets, want 2 (browse skipped)", len(packets))
	}
	if packets[0].Size != 2048 || packets[1].Size != 4096 {
		t.Fatalf("packet sizes wrong: %+v", packets)
	}
	for i, p := range packets {
		if p.ID != i {
			t.Fatalf("packet ID %d at index %d", p.ID, i)
		}
		if p.Profile != prof {
			t.Fatal("profile not propagated")
		}
	}
}

func TestActivenessClassString(t *testing.T) {
	tests := []struct {
		c    ActivenessClass
		want string
	}{
		{ClassActive, "active"},
		{ClassModerate, "moderate"},
		{ClassInactive, "inactive"},
		{ActivenessClass(9), "workload.ActivenessClass(9)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Fatalf("class string = %q, want %q", got, tt.want)
		}
	}
}
