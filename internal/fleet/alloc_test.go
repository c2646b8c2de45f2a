//go:build !race

// Under -race, sync.Pool drops items at random, so randx.Acquire allocates
// and the count below would not be zero.

package fleet

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"etrain/internal/diurnal"
)

// TestDevicePairAllocatesNothing pins the steady state of a shard's device
// loop: once a shard's worth of devices has grown the scratch, a device
// pair allocates nothing, on the default fleet and on the week-diurnal LTE
// DRX one.
func TestDevicePairAllocatesNothing(t *testing.T) {
	week, err := diurnal.ByName("week")
	if err != nil {
		t.Fatal(err)
	}
	week.TimeScale = 1008
	for _, cfg := range []Config{
		{Devices: 1, Seed: 1, Theta: 4, K: 20},
		{Devices: 1, Seed: 1, Theta: 4, K: 20, Diurnal: week, Radio: "lte-drx"},
	} {
		norm, pop, err := cfg.normalize()
		if err != nil {
			t.Fatal(err)
		}
		sc, err := getScratch(&norm)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < DefaultShardSize; i++ {
			if _, err := sc.runDevice(&norm, pop, i); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(DefaultShardSize, func() {
			if _, err := sc.runDevice(&norm, pop, i%DefaultShardSize); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("diurnal %v: %v allocations per device pair, want 0", cfg.Diurnal != nil, allocs)
		}
	}
}

// TestOneShardRunAllocatesPerShard pins the scheduler's cost per device:
// none. A warmed one-shard Run at 4 workers, whose devices all spread over
// the workers, must allocate no more for 512 devices than for 256 once the
// shard's fold is set aside: the sketches' widening as samples arrive and
// the report merged from them, measured by folding a copy of the same
// outcomes alone.
func TestOneShardRunAllocatesPerShard(t *testing.T) {
	// minAllocs discounts a pooled scratch that a garbage collection
	// dropped, whose regrowth is the collector's cost, not the run's.
	minAllocs := func(f func()) float64 {
		least := testing.AllocsPerRun(1, f)
		for range 4 {
			least = min(least, testing.AllocsPerRun(1, f))
		}
		return least
	}
	overhead := func(devices int) float64 {
		cfg := Config{Devices: devices, ShardSize: devices, Workers: 4, Seed: 1, Horizon: 2 * time.Minute, Theta: 4, K: 20}
		runAllocs := minAllocs(func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		norm, pop, err := cfg.normalize()
		if err != nil {
			t.Fatal(err)
		}
		hash := norm.hash()
		sc, err := getScratch(&norm)
		if err != nil {
			t.Fatal(err)
		}
		outs := make([]DeviceOutcome, devices)
		for i := range outs {
			if outs[i], err = sc.runDevice(&norm, pop, i); err != nil {
				t.Fatal(err)
			}
		}
		scratchPool.Put(sc)
		foldAllocs := minAllocs(func() {
			f, err := getFold(&norm)
			if err != nil {
				t.Fatal(err)
			}
			// addShard puts the buffer it folds into outcomesPool, where a
			// later Run writes into it, so it folds a copy.
			f.addShard(0, &shardOutcomes{outs: slices.Clone(outs)})
			if _, err := f.report(&norm, hash); err != nil {
				t.Fatal(err)
			}
			f.release()
		})
		t.Logf("%d devices: %v allocations per run, %v of them the fold", devices, runAllocs, foldAllocs)
		return runAllocs - foldAllocs
	}
	if at256, at512 := overhead(256), overhead(512); at512 > at256 {
		t.Errorf("a one-shard run allocates %v beyond its fold at 512 devices, %v at 256", at512, at256)
	}
}

// TestRunAllocatesUnder1KBPerShard pins the fold's memory per shard: a
// warmed Run of 256 devices in 16 shards must allocate less than 1 KB per
// extra shard over the same devices in 4 shards. The devices, and so the
// report, are the same in both runs; what differs is the shards. A
// shard's moments fold through the fold's reused scratch, its devices'
// values go into the run's reused sketches, and its outcome buffer goes
// back to the pool, so what an extra shard adds is its admission pointer.
// When every shard folded into an aggregate of its own, with nine
// sketches, each extra shard cost about 16 KB.
func TestRunAllocatesUnder1KBPerShard(t *testing.T) {
	// bytesOf reads the least of six runs, discounting a pooled scratch
	// that a garbage collection dropped.
	bytesOf := func(shards int) uint64 {
		cfg := Config{Devices: 256, ShardSize: 256 / shards, Workers: 4, Seed: 1, Horizon: 2 * time.Minute, Theta: 4, K: 20}
		least := uint64(math.MaxUint64)
		for range 6 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	at4, at16 := bytesOf(4), bytesOf(16)
	perShard := (float64(at16) - float64(at4)) / 12
	t.Logf("%d B in 4 shards, %d B in 16: %.0f B per extra shard", at4, at16, perShard)
	if perShard >= 1024 {
		t.Errorf("each shard past the fourth allocates %.0f B, want under 1 KB", perShard)
	}
}
