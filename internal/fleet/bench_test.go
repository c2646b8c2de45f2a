package fleet

import (
	"runtime"
	"testing"
	"time"
)

// BenchmarkDevicePair measures one device's with/without-eTrain run pair —
// the fleet engine's unit of work — in steady state: one scratch, grown by
// a shard's worth of devices, runs them again in turn. A fresh device
// every op would add the growth of whichever device outgrew the buffers
// so far, a figure that depends on b.N. Like testing.AllocsPerRun, it
// runs on one P: sync.Pool caches per P, so a goroutine that moves to
// another P can miss its pooled randx.Source (about 5 KB), and B/op would
// depend on scheduling.
func BenchmarkDevicePair(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := Config{Devices: 1, Seed: 1, Theta: 4.0, K: 20}
	norm, pop, err := cfg.normalize()
	if err != nil {
		b.Fatal(err)
	}
	sc, err := getScratch(&norm)
	if err != nil {
		b.Fatal(err)
	}
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
