package wire

import (
	"testing"
	"time"

	"etrain/internal/profile"
)

// BenchmarkWireCodec measures a full encode+decode round trip of a
// representative session frame mix (the per-frame cost a session pays on
// each event) on the path sessions take: each message held in a Frame,
// encoded into one reused buffer and decoded into one reused Frame.
func BenchmarkWireCodec(b *testing.B) {
	msgs := []Message{
		HeartbeatObserved{At: 90 * time.Second, App: "wechat", Size: 74},
		CargoArrival{ID: 12, At: 91 * time.Second, App: "mail", Size: 4096, Profile: profile.KindMail, Deadline: 30 * time.Second},
		Decision{Slot: 91 * time.Second, Entries: []DecisionEntry{{ID: 12, Start: 91 * time.Second}}},
	}
	frames := make([]Frame, len(msgs))
	for i, m := range msgs {
		frames[i].set(m)
	}
	var buf []byte
	var dec Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range frames {
			var err error
			buf, err = frames[j].Append(buf[:0])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := dec.Decode(buf); err != nil {
				b.Fatal(err)
			}
		}
	}
}
