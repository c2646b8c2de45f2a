package workload

import (
	"fmt"
	"slices"
	"time"

	"etrain/internal/profile"
	"etrain/internal/randx"
)

// Behavior is the type of a recorded user action in the Luna Weibo trace
// format: (User ID, Behavior type, Time, Packet Size).
type Behavior int

// Behavior types observed by the paper's deployed client.
const (
	BehaviorUpload Behavior = iota + 1
	BehaviorDownload
	BehaviorBrowse
)

// String returns the behavior name.
func (b Behavior) String() string {
	switch b {
	case BehaviorUpload:
		return "upload"
	case BehaviorDownload:
		return "download"
	case BehaviorBrowse:
		return "browse"
	default:
		return fmt.Sprintf("workload.Behavior(%d)", int(b))
	}
}

// ParseBehavior converts a trace-file token to a Behavior.
func ParseBehavior(s string) (Behavior, error) {
	switch s {
	case "upload":
		return BehaviorUpload, nil
	case "download":
		return BehaviorDownload, nil
	case "browse":
		return BehaviorBrowse, nil
	default:
		return 0, fmt.Errorf("workload: unknown behavior %q", s)
	}
}

// BehaviorRecord is one entry of a user trace.
type BehaviorRecord struct {
	// UserID identifies the user.
	UserID string
	// Behavior is the action type.
	Behavior Behavior
	// At is the action instant relative to the trace start.
	At time.Duration
	// Size is the payload in bytes (zero for pure browse events).
	Size int64
}

// ActivenessClass buckets users by upload events per "app use" (§VI-D4):
// active >20, moderate 10–20, inactive <10.
type ActivenessClass int

// Activeness classes.
const (
	ClassInactive ActivenessClass = iota + 1
	ClassModerate
	ClassActive
)

// String returns the class name.
func (c ActivenessClass) String() string {
	switch c {
	case ClassActive:
		return "active"
	case ClassModerate:
		return "moderate"
	case ClassInactive:
		return "inactive"
	default:
		return fmt.Sprintf("workload.ActivenessClass(%d)", int(c))
	}
}

// SessionLength is the paper's app-use window: traces are truncated or
// padded to 10 minutes.
const SessionLength = 10 * time.Minute

// Classify buckets a user by the number of upload events in the trace
// (one trace = one app use, per the paper's replay methodology).
func Classify(records []BehaviorRecord) ActivenessClass {
	uploads := 0
	for _, r := range records {
		if r.Behavior == BehaviorUpload {
			uploads++
		}
	}
	switch {
	case uploads > 20:
		return ClassActive
	case uploads >= 10:
		return ClassModerate
	default:
		return ClassInactive
	}
}

// uploadsFor returns a representative upload-event count for a class.
func uploadsFor(src *randx.Source, class ActivenessClass) int {
	switch class {
	case ClassActive:
		return 21 + src.Intn(15) // 21–35
	case ClassModerate:
		return 10 + src.Intn(11) // 10–20
	default:
		return 1 + src.Intn(9) // 1–9
	}
}

// SynthesizeUser generates a 10-minute user trace of the requested
// activeness class: upload events uniformly spread through the session with
// weibo-like sizes, interleaved with browse-triggered downloads. It is the
// paper's fixed app-use window; SynthesizeSession generalizes the length.
func SynthesizeUser(src *randx.Source, userID string, class ActivenessClass) []BehaviorRecord {
	return SynthesizeSession(src, userID, class, SessionLength, nil)
}

// PacketsFromTrace converts a user trace into schedulable packets. Browse
// events carry no payload and are skipped. The packets use the given
// profile (the paper replays Weibo traces with the f2 profile and a 30 s
// deadline).
func PacketsFromTrace(records []BehaviorRecord, prof profile.Profile) []Packet {
	return AppendPacketsFromTrace(nil, records, prof)
}

// AppendPacketsFromTrace appends to dst the packets PacketsFromTrace
// returns, their IDs counted from 0 at the first appended packet.
//
//etrain:hotpath
func AppendPacketsFromTrace(dst []Packet, records []BehaviorRecord, prof profile.Profile) []Packet {
	n := 0
	for _, r := range records {
		if r.Size > 0 {
			n++
		}
	}
	dst = slices.Grow(dst, n)
	first := len(dst)
	for _, r := range records {
		if r.Size <= 0 {
			continue
		}
		dst = append(dst, Packet{
			ID:        len(dst) - first,
			App:       "weibo",
			ArrivedAt: r.At,
			Size:      r.Size,
			Profile:   prof,
		})
	}
	return dst
}
