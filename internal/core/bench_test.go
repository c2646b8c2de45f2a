package core

import (
	"fmt"
	"testing"
	"time"

	"etrain/internal/profile"
	"etrain/internal/sched"
	"etrain/internal/workload"
)

// BenchmarkGreedySelectHeartbeatFlush measures one full Eq. 9 greedy flush
// of a 100-packet, 3-app queue — the scheduler's hottest path.
func BenchmarkGreedySelectHeartbeatFlush(b *testing.B) {
	profiles := map[string]profile.Profile{
		"mail":  profile.Mail(3 * time.Minute),
		"weibo": profile.Weibo(90 * time.Second),
		"cloud": profile.Cloud(5 * time.Minute),
	}
	apps := []string{"mail", "weibo", "cloud"}
	e, err := New(Options{Theta: 0, K: KInfinite})
	if err != nil {
		b.Fatal(err)
	}
	fill := func() *sched.SlotContext {
		q := sched.NewQueues()
		for j := 0; j < 100; j++ {
			app := apps[j%len(apps)]
			q.Add(workload.Packet{
				ID: j, App: app, ArrivedAt: time.Duration(j) * time.Second,
				Size: 2048, Profile: profiles[app],
			})
		}
		return &sched.SlotContext{
			Now: 200 * time.Second, SlotLength: time.Second,
			HeartbeatNow: true, Queues: q,
		}
	}
	// The first flush grows the strategy's scratch, which every later one
	// reuses: run it untimed so the figures are the steady state.
	e.Schedule(fill())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx := fill()
		b.StartTimer()
		if got := e.Schedule(ctx); len(got) != 100 {
			b.Fatalf("flushed %d", len(got))
		}
	}
}

// BenchmarkGreedySelectDrip measures the per-slot K(t)=1 selection on a
// 50-packet queue.
func BenchmarkGreedySelectDrip(b *testing.B) {
	prof := profile.Weibo(90 * time.Second)
	e, err := New(Options{Theta: 0.0001, K: KInfinite})
	if err != nil {
		b.Fatal(err)
	}
	q := sched.NewQueues()
	for j := 0; j < 50; j++ {
		q.Add(workload.Packet{
			ID: j, App: "weibo", ArrivedAt: time.Duration(j) * time.Second,
			Size: 2048, Profile: prof,
		})
	}
	ctx := &sched.SlotContext{
		Now: 200 * time.Second, SlotLength: time.Second, Queues: q,
	}
	// As in the flush benchmark, the first drip grows the scratch: untimed.
	for _, p := range e.Schedule(ctx) {
		q.Add(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		selected := e.Schedule(ctx)
		b.StopTimer()
		for _, p := range selected {
			q.Add(p) // restore for the next iteration
		}
		b.StartTimer()
	}
}

// BenchmarkScheduleManyApps measures one Eq. 9 heartbeat flush of 30
// packets over three apps, in a queue set that has registered many more
// apps whose queues have since emptied: a session whose client named many
// apps. A slot walks the apps by index, so its cost grows linearly with
// the number registered.
func BenchmarkScheduleManyApps(b *testing.B) {
	prof := profile.Weibo(90 * time.Second)
	for _, apps := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("apps=%d", apps), func(b *testing.B) {
			e, err := New(Options{Theta: 0, K: KInfinite})
			if err != nil {
				b.Fatal(err)
			}
			q := sched.NewQueues()
			for a := 0; a < apps; a++ {
				name := fmt.Sprintf("app%05d", a)
				q.Add(workload.Packet{ID: -1 - a, App: name, Profile: prof})
				q.PopHead(name)
			}
			busy := q.Apps()[apps-3:]
			ctx := &sched.SlotContext{
				Now: 200 * time.Second, SlotLength: time.Second,
				HeartbeatNow: true, Queues: q,
			}
			fill := func() {
				for j := 0; j < 30; j++ {
					q.Add(workload.Packet{
						ID: j, App: busy[j%len(busy)], ArrivedAt: time.Duration(j) * time.Second,
						Size: 2048, Profile: prof,
					})
				}
			}
			// The first flush grows the strategy's scratch: untimed.
			fill()
			e.Schedule(ctx)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fill()
				b.StartTimer()
				if got := e.Schedule(ctx); len(got) != 30 {
					b.Fatalf("flushed %d", len(got))
				}
			}
		})
	}
}
