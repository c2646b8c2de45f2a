//go:build !race

// Under -race, sync.Pool drops items at random, so randx.Acquire allocates
// and the count below would not be zero.

package fleet

import (
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
// shard's fold is set aside: its aggregate, the sketches' widening as
// samples arrive, and the report merged from it, measured by folding the
// same outcomes alone.
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
			agg, err := newShardAggregate(0, len(norm.Mix), norm.SketchAlpha)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range outs {
				agg.add(o)
			}
			if _, err := buildReport(&norm, hash, []*ShardAggregate{agg}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d devices: %v allocations per run, %v of them the fold", devices, runAllocs, foldAllocs)
		return runAllocs - foldAllocs
	}
	if at256, at512 := overhead(256), overhead(512); at512 > at256 {
		t.Errorf("a one-shard run allocates %v beyond its fold at 512 devices, %v at 256", at512, at256)
	}
}
