package sched

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"etrain/internal/profile"
	"etrain/internal/workload"
)

// refQueues is the map-backed queue set Queues replaced, kept verbatim as
// the reference the slice layout must reproduce operation for operation.
type refQueues struct {
	order []string
	byApp map[string][]workload.Packet
}

func newRefQueues() *refQueues {
	return &refQueues{byApp: make(map[string][]workload.Packet)}
}

func (q *refQueues) Add(p workload.Packet) {
	if _, ok := q.byApp[p.App]; !ok {
		q.order = append(q.order, p.App)
	}
	q.byApp[p.App] = append(q.byApp[p.App], p)
}

func (q *refQueues) Apps() []string {
	out := make([]string, len(q.order))
	copy(out, q.order)
	return out
}

func (q *refQueues) Len() int {
	n := 0
	for _, pkts := range q.byApp {
		n += len(pkts)
	}
	return n
}

func (q *refQueues) AppLen(app string) int { return len(q.byApp[app]) }

func (q *refQueues) Packets(app string) []workload.Packet {
	src := q.byApp[app]
	out := make([]workload.Packet, len(src))
	copy(out, src)
	return out
}

func (q *refQueues) Each(fn func(p workload.Packet)) {
	for _, app := range q.order {
		for _, p := range q.byApp[app] {
			fn(p)
		}
	}
}

func (q *refQueues) PopByID(app string, id int) (workload.Packet, bool) {
	pkts := q.byApp[app]
	for i, p := range pkts {
		if p.ID == id {
			copy(pkts[i:], pkts[i+1:])
			pkts[len(pkts)-1] = workload.Packet{}
			q.byApp[app] = pkts[:len(pkts)-1]
			return p, true
		}
	}
	return workload.Packet{}, false
}

func (q *refQueues) PopHead(app string) (workload.Packet, bool) {
	pkts := q.byApp[app]
	if len(pkts) == 0 {
		return workload.Packet{}, false
	}
	head := pkts[0]
	copy(pkts, pkts[1:])
	pkts[len(pkts)-1] = workload.Packet{}
	q.byApp[app] = pkts[:len(pkts)-1]
	return head, true
}

func (q *refQueues) CostAt(now time.Duration) float64 {
	total := 0.0
	q.Each(func(p workload.Packet) { total += p.Cost(now) })
	return total
}

func (q *refQueues) AppCostAt(app string, now time.Duration) float64 {
	total := 0.0
	for _, p := range q.byApp[app] {
		total += p.Cost(now)
	}
	return total
}

func (q *refQueues) SpeculativeAppCostAt(app string, nextSlot time.Duration) float64 {
	total := 0.0
	for _, p := range q.byApp[app] {
		total += p.Cost(nextSlot)
	}
	return total
}

func (q *refQueues) Oldest() (workload.Packet, bool) {
	var oldest workload.Packet
	found := false
	q.Each(func(p workload.Packet) {
		if !found || p.ArrivedAt < oldest.ArrivedAt {
			oldest = p
			found = true
		}
	})
	return oldest, found
}

// sameFloat reports whether two sums are bit-identical.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestQueuesMatchMapReference drives the slice-backed Queues and the
// map-backed reference with the same random operations — adds over one to
// six apps (an empty name among them), and over 9 and 40 apps so the name
// lookup switches from a scan to its map, pops by ID that hit and miss,
// head pops, bulk removals and every query — and requires equal answers,
// with every cost sum bit-identical. One Queues serves every round, Reset
// between rounds against a fresh reference, the last round returning from
// 40 apps to 3.
func TestQueuesMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	names := []string{"weibo", "", "mail", "cloud", "x", "weibo2"}
	for len(names) < 40 {
		names = append(names, fmt.Sprintf("app%02d", len(names)))
	}
	profiles := []profile.Profile{
		profile.Mail(40 * time.Second),
		profile.Weibo(30 * time.Second),
		profile.Cloud(60 * time.Second),
	}
	// One round per app count, 2000 operations each.
	q := NewQueues()
	for round, count := range []int{1, 2, 3, 4, 5, 6, scanApps + 1, 40, 3} {
		q.Reset()
		ref := newRefQueues()
		apps := names[:count]
		nextID := 0
		var now time.Duration
		for op := 0; op < 2000; op++ {
			app := apps[rng.Intn(len(apps))]
			switch k := rng.Intn(12); {
			case k < 4:
				now += time.Duration(rng.Intn(3000)) * time.Millisecond
				p := workload.Packet{
					ID: nextID, App: app, ArrivedAt: now, Size: int64(rng.Intn(5000)),
					Profile: profiles[rng.Intn(len(profiles))],
				}
				nextID++
				q.Add(p)
				ref.Add(p)
			case k < 6:
				// Any issued ID — queued in this app, another app or
				// already popped — or one never issued: hits and misses.
				id := rng.Intn(nextID + 3)
				got, gotOK := q.PopByID(app, id)
				want, wantOK := ref.PopByID(app, id)
				if gotOK != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d op %d: PopByID(%q, %d) = %v %v, want %v %v", round, op, app, id, got, gotOK, want, wantOK)
				}
			case k < 7:
				got, gotOK := q.PopHead(app)
				want, wantOK := ref.PopHead(app)
				if gotOK != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d op %d: PopHead(%q) = %v %v, want %v %v", round, op, app, got, gotOK, want, wantOK)
				}
			case k < 8:
				// RemoveAt ≡ popping the flagged packets one by one.
				a := slices.Index(q.AppsView(), app)
				if a < 0 {
					break
				}
				view := q.ViewAt(a)
				drop := make([]bool, len(view))
				for j := range drop {
					drop[j] = rng.Intn(3) == 0
				}
				for j, p := range view {
					if drop[j] {
						ref.PopByID(app, p.ID)
					}
				}
				q.RemoveAt(a, drop)
			case k < 9:
				got, gotOK := q.Oldest()
				want, wantOK := ref.Oldest()
				if gotOK != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d op %d: Oldest = %v %v, want %v %v", round, op, got, gotOK, want, wantOK)
				}
			default:
				at := now + time.Duration(rng.Int63n(int64(90*time.Second)))
				if got, want := q.CostAt(at), ref.CostAt(at); !sameFloat(got, want) {
					t.Fatalf("round %d op %d: CostAt = %v, want %v", round, op, got, want)
				}
				if got, want := q.AppCostAt(app, at), ref.AppCostAt(app, at); !sameFloat(got, want) {
					t.Fatalf("round %d op %d: AppCostAt(%q) = %v, want %v", round, op, app, got, want)
				}
				if got, want := q.SpeculativeAppCostAt(app, at), ref.SpeculativeAppCostAt(app, at); !sameFloat(got, want) {
					t.Fatalf("round %d op %d: SpeculativeAppCostAt(%q) = %v, want %v", round, op, app, got, want)
				}
			}
			if q.Len() != ref.Len() {
				t.Fatalf("round %d op %d: Len = %d, want %d", round, op, q.Len(), ref.Len())
			}
			if got, want := q.AppLen(app), ref.AppLen(app); got != want {
				t.Fatalf("round %d op %d: AppLen(%q) = %d, want %d", round, op, app, got, want)
			}
			if !reflect.DeepEqual(q.Apps(), ref.Apps()) {
				t.Fatalf("round %d op %d: Apps = %q, want %q", round, op, q.Apps(), ref.Apps())
			}
			if !reflect.DeepEqual(q.Packets(app), ref.Packets(app)) {
				t.Fatalf("round %d op %d: Packets(%q) differ", round, op, app)
			}
			if a := slices.Index(q.AppsView(), app); a >= 0 && !slices.Equal(q.ViewAt(a), ref.byApp[app]) {
				t.Fatalf("round %d op %d: ViewAt(%d) differs from %q's queue", round, op, a, app)
			}
		}
		var got, want []workload.Packet
		q.Each(func(p workload.Packet) { got = append(got, p) })
		ref.Each(func(p workload.Packet) { want = append(want, p) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: Each order differs", round)
		}
	}
}
