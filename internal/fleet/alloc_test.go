package fleet

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"etrain/internal/core"
	"etrain/internal/diurnal"
)

// scratchFor returns a new scratch whose eTrain strategy runs at cfg's Θ
// and k, as a run's worker slot does.
func scratchFor(tb testing.TB, cfg *Config) *scratch {
	tb.Helper()
	sc := newScratch()
	if err := sc.etrain.Reset(core.Options{Theta: cfg.Theta, K: cfg.K}); err != nil {
		tb.Fatal(err)
	}
	return sc
}

// warm runs cfg once, so the run free list holds a run with a scratch per
// worker slot, and then runs every device of cfg on every slot's scratch.
// Which devices a slot runs, and so how far its buffers grow, depends on
// scheduling; once every slot has run every device, no later run of cfg
// grows a scratch.
func warm(t *testing.T, cfg Config) {
	t.Helper()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	norm, pop, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	for range len(runs) {
		r := <-runs
		defer func() { runs <- r }()
		for _, sc := range r.scratches {
			if err := sc.etrain.Reset(core.Options{Theta: norm.Theta, K: norm.K}); err != nil {
				t.Fatal(err)
			}
			for i := range norm.Devices {
				if _, err := sc.runDevice(&norm, pop, i); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// startThreads has the runtime start n OS threads, which it keeps idle
// for later use: n goroutines each lock a thread and wait until all n hold
// one, then unlock it and end. A warmed run at GOMAXPROCS 8 on fewer CPUs
// otherwise now and then finds no idle thread for a P it wakes and starts
// one, allocating the thread's records (about 5 KB) in whichever run
// needed it.
func startThreads(n int) {
	var locked, ended sync.WaitGroup
	release := make(chan struct{})
	locked.Add(n)
	ended.Add(n)
	for range n {
		go func() {
			defer ended.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			locked.Done()
			<-release
		}()
	}
	locked.Wait()
	close(release)
	ended.Wait()
}

// runBytes warms cfg and the runtime's threads, collects garbage, runs
// cfg once more unmeasured, and returns the bytes of the run after that.
// A collection cannot empty the run free list, so nothing the warm-up
// grew is lost to it; the unmeasured run refills what it does empty of
// the runtime's own caches.
func runBytes(t *testing.T, cfg Config) uint64 {
	t.Helper()
	warm(t, cfg)
	startThreads(2*runtime.GOMAXPROCS(0) + 2)
	runtime.GC()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDevicePairAllocatesNothing pins the steady state of a worker's
// device loop: once a shard's worth of devices has grown the scratch, a
// device pair allocates nothing, on the default fleet and on the
// week-diurnal LTE DRX one.
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
		sc := scratchFor(t, &norm)
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
// fold is set aside: the report built from it, measured by folding the
// same outcomes into a warmed fold of its own. The run is measured as
// testing.AllocsPerRun measures, once after an unmeasured run, at
// GOMAXPROCS 1: the workers' goroutines then wait and wake on one P,
// whose cache of wait records a warmed run leaves as full as it found
// it. Across Ps the records drift from P to P, and a run that finds its
// P's cache empty allocates one.
func TestOneShardRunAllocatesPerShard(t *testing.T) {
	overhead := func(devices int) float64 {
		cfg := Config{Devices: devices, ShardSize: devices, Workers: 4, Seed: 1, Horizon: 2 * time.Minute, Theta: 4, K: 20}
		warm(t, cfg)
		runtime.GC()
		runAllocs := testing.AllocsPerRun(1, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		norm, pop, err := cfg.normalize()
		if err != nil {
			t.Fatal(err)
		}
		hash := norm.hash()
		sc := scratchFor(t, &norm)
		outs := make([]DeviceOutcome, devices)
		for i := range outs {
			if outs[i], err = sc.runDevice(&norm, pop, i); err != nil {
				t.Fatal(err)
			}
		}
		var f fold
		foldAllocs := testing.AllocsPerRun(1, func() {
			if err := f.reset(&norm); err != nil {
				t.Fatal(err)
			}
			f.addShard(outs)
			if _, err := f.report(&norm, hash); err != nil {
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

// TestRunAllocatesUnder1KBPerShard pins the fold's memory per shard: a
// warmed Run of 256 devices in 16 shards must allocate less than 1 KB per
// extra shard over the same devices in 4 shards. The devices, and so the
// report, are the same in both runs; what differs is the shards. A
// shard's moments fold through the fold's reused scratch, its devices'
// values go into the run's reused sketches, and its outcome buffer goes
// back to the run's free list. When every shard folded into an aggregate
// of its own, with nine sketches, each extra shard cost about 16 KB.
func TestRunAllocatesUnder1KBPerShard(t *testing.T) {
	bytesOf := func(shards int) uint64 {
		return runBytes(t, Config{Devices: 256, ShardSize: 256 / shards, Workers: 4, Seed: 1, Horizon: 2 * time.Minute, Theta: 4, K: 20})
	}
	at4, at16 := bytesOf(4), bytesOf(16)
	perShard := (float64(at16) - float64(at4)) / 12
	t.Logf("%d B in 4 shards, %d B in 16: %.0f B per extra shard", at4, at16, perShard)
	if perShard >= 1024 {
		t.Errorf("each shard past the fourth allocates %.0f B, want under 1 KB", perShard)
	}
}

// TestRunBytesIndependentOfScheduling runs a warmed fleet ten times at
// GOMAXPROCS 2 and 8, one worker per P, and requires every run's bytes to
// be within 5% of every other's. A run keeps one scratch per worker slot,
// whichever P runs the slot's goroutine, and a fixed set of outcome
// buffers, and its worker loops run on its crew's goroutines. So what a
// run allocates is its report, not where the scheduler put its workers.
func TestRunBytesIndependentOfScheduling(t *testing.T) {
	cfg := Config{Devices: 1024, Workers: -1, Seed: 42, Horizon: 2 * time.Minute, Theta: 4, K: 20}
	for _, procs := range []int{2, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			least, most := ^uint64(0), uint64(0)
			for range 10 {
				bytes := runBytes(t, cfg)
				least, most = min(least, bytes), max(most, bytes)
			}
			t.Logf("GOMAXPROCS %d: %d to %d B per run", procs, least, most)
			if float64(most) > 1.05*float64(least) {
				t.Errorf("GOMAXPROCS %d: runs allocated %d to %d B, more than 5%% apart", procs, least, most)
			}
		}()
	}
}

// TestRunBuffersFollowTheFleet pins what a run grows for outcomes: no
// more buffers than it can fill at once, none past its longest shard. A
// run of 64 devices in shards of 1<<20, after a run of 16 shards at 8
// workers left ten buffers, holds one and allocates under 1 MB; grown to
// ShardSize, each buffer would take 40 MB.
func TestRunBuffersFollowTheFleet(t *testing.T) {
	many := Config{Devices: 4096, ShardSize: 256, Workers: 8, Seed: 1, Horizon: 2 * time.Minute, Theta: 4, K: 20}
	few := Config{Devices: 64, ShardSize: 1 << 20, Workers: 2, Seed: 1, Horizon: 2 * time.Minute, Theta: 4, K: 20}
	if _, err := Run(many); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(few); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= 1<<20 {
		t.Errorf("a run of 64 devices in shards of 1<<20 allocated %d B, want under 1 MB", bytes)
	}
	norm, pop, err := few.normalize()
	if err != nil {
		t.Fatal(err)
	}
	r, err := takeRun(&norm, pop)
	if err != nil {
		t.Fatal(err)
	}
	defer r.release()
	if len(r.free) != 1 {
		t.Errorf("a one-shard run holds %d outcome buffers, want 1", len(r.free))
	}
	for _, so := range r.buffers {
		if cap(so.outs) >= few.ShardSize {
			t.Errorf("a 64-device run left an outcome buffer of %d slots, want fewer than ShardSize", cap(so.outs))
		}
	}
}
