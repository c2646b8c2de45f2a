package fleet

import (
	"testing"
	"time"
)

// BenchmarkDevicePair measures one device's with/without-eTrain run pair —
// the fleet engine's unit of work — in steady state: one scratch, grown by
// a shard's worth of devices, runs them again in turn. A fresh device
// every op would add the growth of whichever device outgrew the buffers
// so far, a figure that depends on b.N. The scratch owns its random
// streams, so nothing depends on which P runs the benchmark.
func BenchmarkDevicePair(b *testing.B) {
	cfg := Config{Devices: 1, Seed: 1, Theta: 4.0, K: 20}
	norm, pop, err := cfg.normalize()
	if err != nil {
		b.Fatal(err)
	}
	sc := scratchFor(b, &norm)
	for i := 0; i < DefaultShardSize; i++ {
		if _, err := sc.runDevice(&norm, pop, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.runDevice(&norm, pop, i%DefaultShardSize); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleet10k runs a 10k-device population end to end (one CPU per
// worker, 2-minute sessions) — the guardrail number for population-scale
// throughput and aggregate memory.
func BenchmarkFleet10k(b *testing.B) {
	cfg := Config{
		Devices: 10000,
		Workers: -1,
		Seed:    42,
		Horizon: 2 * time.Minute,
		Theta:   4.0,
		K:       20,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
