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
// the reference the slice layout must reproduce operation for operation:
// its Oldest followed by PopByID, and its PopHead, are the by-name pops
// that PopOldest and PopAt replaced.
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

func (q *refQueues) Len() int {
	n := 0
	for _, pkts := range q.byApp {
		n += len(pkts)
	}
	return n
}

func (q *refQueues) AppLen(app string) int { return len(q.byApp[app]) }

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
// lookup switches from a scan to its map, index pops of the packet with a
// given ID (hits and misses), head pops, bulk removals, oldest pops and
// every query — and requires equal answers, with every cost sum
// bit-identical. Half the adds arrive at the instant of the add before
// them, so equal arrivals meet across apps, and IDs count per app, so the
// same ID is queued in several apps at once. One Queues serves every
// round, Reset between rounds against a fresh reference, the last round
// returning from 40 apps to 3; each round ends by draining both sets
// oldest first.
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
		issued := make(map[string]int) // the next ID of each app
		var now time.Duration
		for op := 0; op < 2000; op++ {
			app := apps[rng.Intn(len(apps))]
			a := slices.Index(q.AppsView(), app)
			switch k := rng.Intn(12); {
			case k < 4:
				if rng.Intn(2) == 0 {
					now += time.Duration(1+rng.Intn(3000)) * time.Millisecond
				}
				p := workload.Packet{
					ID: issued[app], App: app, ArrivedAt: now, Size: int64(rng.Intn(5000)),
					Profile: profiles[rng.Intn(len(profiles))],
				}
				issued[app]++
				q.Add(p)
				ref.Add(p)
			case k < 6:
				// Any ID issued to this app — queued or already popped —
				// or one never issued: hits and misses.
				id := rng.Intn(issued[app] + 3)
				want, wantOK := ref.PopByID(app, id)
				j := -1
				if a >= 0 {
					j = slices.IndexFunc(q.ViewAt(a), func(p workload.Packet) bool { return p.ID == id })
				}
				if (j >= 0) != wantOK {
					t.Fatalf("round %d op %d: %q queues ID %d at index %d, reference found it %v", round, op, app, id, j, wantOK)
				}
				if j >= 0 {
					if got := q.PopAt(a, j); !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d op %d: PopAt(%d, %d) = %v, want %v", round, op, a, j, got, want)
					}
				}
			case k < 7:
				want, wantOK := ref.PopHead(app)
				if ok := a >= 0 && len(q.ViewAt(a)) > 0; ok != wantOK {
					t.Fatalf("round %d op %d: %q has a head %v, reference %v", round, op, app, ok, wantOK)
				}
				if wantOK {
					if got := q.PopAt(a, 0); !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d op %d: PopAt(%d, 0) = %v, want %v", round, op, a, got, want)
					}
				}
			case k < 8:
				// RemoveAt ≡ popping the flagged packets one by one.
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
				popOldest(t, q, ref, fmt.Sprintf("round %d op %d", round, op))
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
			if !slices.Equal(q.AppsView(), ref.order) {
				t.Fatalf("round %d op %d: AppsView = %q, want %q", round, op, q.AppsView(), ref.order)
			}
			if !slices.Equal(q.View(app), ref.byApp[app]) {
				t.Fatalf("round %d op %d: View(%q) differs", round, op, app)
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
		for n := 0; q.Len() > 0; n++ {
			popOldest(t, q, ref, fmt.Sprintf("round %d drain pop %d", round, n))
		}
		if ref.Len() != 0 {
			t.Fatalf("round %d: reference holds %d packets after the drain", round, ref.Len())
		}
	}
}

// popOldest pops q's oldest packet and requires it to be the packet the
// reference's Oldest names, which the reference then pops by ID.
func popOldest(t *testing.T, q *Queues, ref *refQueues, at string) {
	t.Helper()
	want, wantOK := ref.Oldest()
	if (q.Len() > 0) != wantOK {
		t.Fatalf("%s: Len %d, reference Oldest found %v", at, q.Len(), wantOK)
	}
	if !wantOK {
		return
	}
	if _, ok := ref.PopByID(want.App, want.ID); !ok {
		t.Fatalf("%s: reference cannot pop its oldest %v", at, want)
	}
	if got := q.PopOldest(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: PopOldest = %v, want %v", at, got, want)
	}
}
