package cluster

import (
	"sort"

	"etrain/internal/wire"
)

// DefaultVnodes is the default virtual-node count per shard. 64 points
// per member keeps the load spread within a few percent of fair for
// single-digit shard counts while the ring stays small enough to rebuild
// on every membership change.
const DefaultVnodes = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash  uint64
	shard uint64
}

// Ring is a seeded consistent-hash ring mapping devices to shards. It is
// immutable once built, and building is a pure function of
// (seed, vnodes, member set): the member list is deduplicated and sorted
// before hashing, point ties break by shard ID, and the hash is FNV-1a
// over fixed-width big-endian words — no map order, no process identity,
// no wall clock. Two processes holding the same RouteTable therefore
// route every device identically, which is what lets the control plane
// ship ring inputs instead of assignments (DESIGN.md §13).
//
// Consistency: removing a member moves exactly the devices that member
// owned, and adding one only steals devices for the newcomer — in
// expectation 1/N of the keyspace per membership change. The churn tests
// hold the ring to both properties.
type Ring struct {
	seed   int64
	points []ringPoint
}

// BuildRing constructs the ring for the given member set. vnodes <= 0
// selects DefaultVnodes. An empty member set yields a ring that owns
// nothing.
func BuildRing(seed int64, vnodes int, members []uint64) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	dedup := make([]uint64, 0, len(members))
	seen := make(map[uint64]struct{}, len(members))
	for _, m := range members {
		if _, ok := seen[m]; ok {
			continue
		}
		seen[m] = struct{}{}
		dedup = append(dedup, m)
	}
	sort.Slice(dedup, func(i, j int) bool { return dedup[i] < dedup[j] })

	r := &Ring{
		seed:   seed,
		points: make([]ringPoint, 0, len(dedup)*vnodes),
	}
	for _, m := range dedup {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(seed, m, uint64(v)), shard: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// RingFromTable builds the ring a RouteTable describes plus the
// shard→address map clients dial through.
func RingFromTable(t wire.RouteTable) (*Ring, map[uint64]string) {
	members := make([]uint64, 0, len(t.Shards))
	addrs := make(map[uint64]string, len(t.Shards))
	for _, e := range t.Shards {
		members = append(members, e.ShardID)
		addrs[e.ShardID] = e.Addr
	}
	return BuildRing(t.Seed, int(t.Vnodes), members), addrs
}

// Owner returns the shard owning deviceID: the first ring point at or
// clockwise of the device's hash. ok is false on an empty ring.
//
//etrain:hotpath
func (r *Ring) Owner(deviceID uint64) (shard uint64, ok bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	h := deviceHash(r.seed, deviceID)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return r.points[i].shard, true
}

// FNV-1a constants, shared with wire.SessionToken.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord folds one 64-bit word into an FNV-1a state big-endian-wise, so
// the hash is the same on every platform.
func fnvWord(h, w uint64) uint64 {
	for shift := 56; shift >= 0; shift -= 8 {
		h ^= (w >> uint(shift)) & 0xff
		h *= fnvPrime64
	}
	return h
}

// mix64 is the standard 64-bit avalanche finalizer (MurmurHash3 fmix64).
// Raw FNV-1a leaves the high bits of the state barely touched by the
// last bytes folded, so consecutive device IDs — which differ only in
// their low bytes — would all land in one narrow arc of the circle and
// a single shard would own the whole fleet. The finalizer spreads every
// input bit across the word.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// pointHash places virtual node v of a shard on the circle.
func pointHash(seed int64, shard, v uint64) uint64 {
	h := fnvWord(uint64(fnvOffset64), uint64(seed))
	h = fnvWord(h, shard)
	return mix64(fnvWord(h, v))
}

// deviceHash places a device on the circle. It hashes a different domain
// tag than pointHash (an extra word) so a device can never land exactly
// on a point by construction sharing.
func deviceHash(seed int64, device uint64) uint64 {
	h := fnvWord(uint64(fnvOffset64), uint64(seed))
	h = fnvWord(h, 0x6465766963650000) // "device" domain tag
	return mix64(fnvWord(h, device))
}
