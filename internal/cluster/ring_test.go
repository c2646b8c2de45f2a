package cluster

import (
	"testing"

	"etrain/internal/wire"
)

const ringTestDevices = 4096

// owners maps every test device to its owner under r.
func owners(t *testing.T, r *Ring) []uint64 {
	t.Helper()
	out := make([]uint64, ringTestDevices)
	for d := range out {
		shard, ok := r.Owner(uint64(d))
		if !ok {
			t.Fatalf("device %d: empty ring", d)
		}
		out[d] = shard
	}
	return out
}

// TestRingDeterministic holds the ring to its contract: ownership is a
// pure function of (seed, vnodes, member set) — member order and
// duplicates must not matter, and a rebuilt ring must agree exactly.
func TestRingDeterministic(t *testing.T) {
	a := BuildRing(42, 64, []uint64{1, 2, 3, 4})
	b := BuildRing(42, 64, []uint64{4, 2, 1, 3, 2, 2})
	oa, ob := owners(t, a), owners(t, b)
	for d := range oa {
		if oa[d] != ob[d] {
			t.Fatalf("device %d: owner %d vs %d across equivalent member lists", d, oa[d], ob[d])
		}
	}
	if got := BuildRing(43, 64, []uint64{1, 2, 3, 4}); func() bool {
		for d := 0; d < ringTestDevices; d++ {
			s1, _ := a.Owner(uint64(d))
			s2, _ := got.Owner(uint64(d))
			if s1 != s2 {
				return false
			}
		}
		return true
	}() {
		t.Fatal("changing the seed left every assignment unchanged")
	}
}

// TestRingSingleShard: a one-member ring owns everything, and the
// degenerate cases behave.
func TestRingSingleShard(t *testing.T) {
	r := BuildRing(7, 0, []uint64{9})
	for d := 0; d < 100; d++ {
		shard, ok := r.Owner(uint64(d))
		if !ok || shard != 9 {
			t.Fatalf("device %d: owner (%d, %v), want (9, true)", d, shard, ok)
		}
	}
	if _, ok := BuildRing(7, 64, nil).Owner(1); ok {
		t.Fatal("empty ring claimed an owner")
	}
}

// TestRingBalance: with default vnodes, no shard owns a wildly
// disproportionate share.
func TestRingBalance(t *testing.T) {
	members := []uint64{1, 2, 3, 4, 5}
	r := BuildRing(42, DefaultVnodes, members)
	counts := map[uint64]int{}
	for _, s := range owners(t, r) {
		counts[s]++
	}
	fair := ringTestDevices / len(members)
	for _, m := range members {
		if counts[m] < fair/3 || counts[m] > fair*3 {
			t.Errorf("shard %d owns %d of %d devices (fair share %d)", m, counts[m], ringTestDevices, fair)
		}
	}
}

// TestRingRemovalMovesOnlyOwned: dropping a member relocates exactly
// that member's devices; everyone else's assignment is untouched.
func TestRingRemovalMovesOnlyOwned(t *testing.T) {
	before := owners(t, BuildRing(42, 64, []uint64{1, 2, 3}))
	after := owners(t, BuildRing(42, 64, []uint64{1, 3}))
	moved := 0
	for d := range before {
		if before[d] == 2 {
			moved++
			if after[d] == 2 {
				t.Fatalf("device %d still routed to removed shard 2", d)
			}
			continue
		}
		if after[d] != before[d] {
			t.Fatalf("device %d moved %d→%d though its shard survived", d, before[d], after[d])
		}
	}
	if moved == 0 {
		t.Fatal("shard 2 owned nothing; test is vacuous")
	}
}

// TestRingJoinStealsFraction: a joining member only steals devices for
// itself, and takes roughly its fair 1/N share of the keyspace.
func TestRingJoinStealsFraction(t *testing.T) {
	before := owners(t, BuildRing(42, 64, []uint64{1, 2, 3, 4}))
	after := owners(t, BuildRing(42, 64, []uint64{1, 2, 3, 4, 5}))
	moved := 0
	for d := range before {
		if after[d] != before[d] {
			if after[d] != 5 {
				t.Fatalf("device %d moved %d→%d, but only the newcomer may steal", d, before[d], after[d])
			}
			moved++
		}
	}
	frac := float64(moved) / float64(ringTestDevices)
	if frac < 0.08 || frac > 0.40 {
		t.Errorf("join moved %.1f%% of devices, want roughly 1/5 (20%%)", frac*100)
	}
}

// TestRingChurn walks a join/leave sequence asserting the movement
// contract at every step.
func TestRingChurn(t *testing.T) {
	members := []uint64{10, 20, 30}
	cur := owners(t, BuildRing(99, 64, members))
	steps := []struct {
		join  uint64 // 0 for a leave
		leave uint64 // 0 for a join
	}{
		{join: 40}, {leave: 20}, {join: 50}, {join: 20}, {leave: 10}, {leave: 50},
	}
	for step, s := range steps {
		if s.join != 0 {
			members = append(members, s.join)
		} else {
			next := members[:0]
			for _, m := range members {
				if m != s.leave {
					next = append(next, m)
				}
			}
			members = next
		}
		after := owners(t, BuildRing(99, 64, members))
		for d := range cur {
			if after[d] == cur[d] {
				continue
			}
			if s.join != 0 && after[d] != s.join {
				t.Fatalf("step %d: device %d moved %d→%d on a join of %d", step, d, cur[d], after[d], s.join)
			}
			if s.leave != 0 && cur[d] != s.leave {
				t.Fatalf("step %d: device %d moved %d→%d on a leave of %d", step, d, cur[d], after[d], s.leave)
			}
		}
		cur = after
	}
}

// TestRingFromTable: a ring built from a RouteTable is the ring its
// inputs describe, and the address map mirrors the entries.
func TestRingFromTable(t *testing.T) {
	table := wire.RouteTable{
		Epoch:  3,
		Seed:   42,
		Vnodes: 64,
		Shards: []wire.RouteEntry{{ShardID: 1, Addr: "a:1"}, {ShardID: 2, Addr: "b:2"}},
	}
	fromTable, addrs := RingFromTable(table)
	direct := BuildRing(42, 64, []uint64{1, 2})
	for d := 0; d < ringTestDevices; d++ {
		s1, _ := fromTable.Owner(uint64(d))
		s2, _ := direct.Owner(uint64(d))
		if s1 != s2 {
			t.Fatalf("device %d: table ring %d, direct ring %d", d, s1, s2)
		}
	}
	if addrs[1] != "a:1" || addrs[2] != "b:2" {
		t.Fatalf("address map %v", addrs)
	}
}

func BenchmarkRingOwner(b *testing.B) {
	r := BuildRing(42, DefaultVnodes, []uint64{1, 2, 3, 4, 5, 6, 7, 8})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Owner(uint64(i)); !ok {
			b.Fatal("empty ring")
		}
	}
}

func BenchmarkBuildRing(b *testing.B) {
	members := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildRing(42, DefaultVnodes, members)
	}
}
