//go:build !race

// Under -race, sync.Pool drops items at random, so randx.Acquire allocates
// and the count below would not be zero.

package fleet

import (
	"testing"

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
