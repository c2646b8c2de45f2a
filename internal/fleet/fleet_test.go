package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"etrain/internal/stats"
	"etrain/internal/workload"
)

// testConfig is a small population that still exercises multiple shards
// and every activeness class.
func testConfig() Config {
	return Config{
		Devices:   40,
		ShardSize: 8,
		Seed:      7,
		Horizon:   2 * time.Minute,
		Theta:     4.0,
		K:         20,
	}
}

func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func renderReport(t *testing.T, rep *Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.Fprint(&buf); err != nil {
		t.Fatalf("Fprint: %v", err)
	}
	return buf.String()
}

// TestRunDeterministicAcrossWorkers pins the headline contract: the
// rendered report, and the aggregates behind it in full precision, are
// byte-identical at 1, 3, 4 and 8 workers, for shards that each fit a
// worker, for one shard split over every worker, for a ragged last shard,
// and for shards of 1 and 3 devices, which finish out of shard order when
// several workers run them and so wait for the prefix before they merge.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	for name, layout := range map[string]func(*Config){
		"five_shards":  func(*Config) {},
		"one_shard":    func(c *Config) { c.ShardSize = 64 },
		"ragged":       func(c *Config) { c.ShardSize = 12 },
		"shard_size_1": func(c *Config) { c.ShardSize = 1 },
		"shard_size_3": func(c *Config) { c.ShardSize = 3 },
	} {
		t.Run(name, func(t *testing.T) {
			base := testConfig()
			layout(&base)
			base.Workers = 1
			rep := mustRun(t, base)
			want, wantAggs := renderReport(t, rep), string(goldenLines(t, rep))
			for _, workers := range []int{3, 4, 8} {
				cfg := base
				cfg.Workers = workers
				rep := mustRun(t, cfg)
				if got := renderReport(t, rep); got != want {
					t.Errorf("report at %d workers differs from 1 worker:\n%s\nvs\n%s", workers, got, want)
				}
				if got := string(goldenLines(t, rep)); got != wantAggs {
					t.Errorf("aggregates at %d workers differ from 1 worker:\n%s\nvs\n%s", workers, got, wantAggs)
				}
			}
		})
	}
}

// TestHaltPolledOncePerShard pins the halt rule at 1 and 8 workers: Halt
// is polled once per shard that is not restored, in shard order, until it
// returns true; the shard it stops and every later one are not run, and
// every earlier one completes and is checkpointed.
func TestHaltPolledOncePerShard(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers_%d", workers), func(t *testing.T) {
			cfg := testConfig()
			cfg.ShardSize = 12 // shards of 12, 12, 12 and 4 devices
			cfg.Workers = workers
			var polls atomic.Int64
			cfg.Halt = func() bool { polls.Add(1); return false }
			mustRun(t, cfg)
			if polls.Load() != 4 {
				t.Errorf("a full run polled Halt %d times, want once per shard (4)", polls.Load())
			}

			path := filepath.Join(t.TempDir(), "fleet.ckpt")
			halted := cfg
			halted.CheckpointPath = path
			polls.Store(0)
			halted.Halt = func() bool { return polls.Add(1) > 2 }
			if _, err := Run(halted); !errors.Is(err, ErrHalted) {
				t.Fatalf("halted run returned %v, want ErrHalted", err)
			}
			if polls.Load() != 3 {
				t.Errorf("a run halted at shard 2 polled Halt %d times, want 3", polls.Load())
			}

			resumed := cfg
			resumed.CheckpointPath = path
			resumed.Resume = true
			polls.Store(0)
			restored := -1
			resumed.Progress = func(done, total int) {
				if restored == -1 {
					restored = done
				}
			}
			mustRun(t, resumed)
			if restored != 2 {
				t.Errorf("the halted run checkpointed %d shards, want the 2 before the halt", restored)
			}
			if polls.Load() != 2 {
				t.Errorf("resuming with 2 of 4 shards restored polled Halt %d times, want 2", polls.Load())
			}
		})
	}
}

// TestRunAccounting checks the population bookkeeping: every device lands
// in exactly one class and the total row sums them.
func TestRunAccounting(t *testing.T) {
	rep := mustRun(t, testConfig())
	if rep.Total.Devices != 40 {
		t.Errorf("total devices %d, want 40", rep.Total.Devices)
	}
	sum := 0
	for _, row := range rep.Classes {
		sum += row.Agg.Devices
	}
	if sum != 40 {
		t.Errorf("class device counts sum to %d, want 40", sum)
	}
	if rep.Shards != 5 {
		t.Errorf("shards = %d, want 5", rep.Shards)
	}
	if rep.Total.WithoutJ.Mean() <= 0 {
		t.Error("degenerate run: zero baseline energy")
	}
	if rep.ConfigHash == "" {
		t.Error("empty config hash")
	}
}

// TestHaltResumeByteIdenticalAtEveryBoundary kills the run at every shard
// boundary, resumes from the snapshot, and requires the resumed report to
// match the uninterrupted one byte for byte.
func TestHaltResumeByteIdenticalAtEveryBoundary(t *testing.T) {
	cfg := testConfig()
	want := renderReport(t, mustRun(t, cfg))
	const shards = 5
	for k := 0; k < shards; k++ {
		k := k
		t.Run(fmt.Sprintf("halt_after_%d", k), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fleet.ckpt")
			interrupted := cfg
			interrupted.CheckpointPath = path
			interrupted.CheckpointEvery = 1
			var completed atomic.Int64
			interrupted.Progress = func(done, total int) { completed.Store(int64(done)) }
			interrupted.Halt = func() bool { return completed.Load() >= int64(k) }
			if _, err := Run(interrupted); !errors.Is(err, ErrHalted) {
				t.Fatalf("interrupted run returned %v, want ErrHalted", err)
			}
			resumed := cfg
			resumed.CheckpointPath = path
			resumed.Resume = true
			start := -1
			resumed.Progress = func(done, total int) {
				if start == -1 {
					start = done
				}
			}
			rep := mustRun(t, resumed)
			if start < k {
				t.Errorf("resume restored %d shards, want at least %d", start, k)
			}
			if got := renderReport(t, rep); got != want {
				t.Errorf("resumed report differs from uninterrupted run:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestHaltResumeAcrossWorkerCounts interrupts a parallel run and resumes at
// a different worker count: the snapshot is worker-agnostic.
func TestHaltResumeAcrossWorkerCounts(t *testing.T) {
	cfg := testConfig()
	want := renderReport(t, mustRun(t, cfg))
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	interrupted := cfg
	interrupted.Workers = 4
	interrupted.CheckpointPath = path
	interrupted.CheckpointEvery = 1
	// Halt by poll count, not completion count: with 4 workers the last
	// shard's pre-start poll can race ahead of the first completions, so a
	// completion-based predicate may never fire. Letting exactly two
	// shards through guarantees ErrHalted whenever there are > 2 shards.
	var polls atomic.Int64
	interrupted.Halt = func() bool { return polls.Add(1) > 2 }
	if _, err := Run(interrupted); !errors.Is(err, ErrHalted) {
		t.Fatalf("interrupted run returned %v, want ErrHalted", err)
	}
	resumed := cfg
	resumed.Workers = 3
	resumed.CheckpointPath = path
	resumed.Resume = true
	if got := renderReport(t, mustRun(t, resumed)); got != want {
		t.Errorf("cross-worker resume differs:\n%s\nvs\n%s", got, want)
	}
}

// TestResumeFromCompleteCheckpoint resumes a finished run: nothing is
// simulated again and the report is unchanged.
func TestResumeFromCompleteCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	full := testConfig()
	full.CheckpointPath = path
	want := renderReport(t, mustRun(t, full))
	resumed := testConfig()
	resumed.CheckpointPath = path
	resumed.Resume = true
	start := -1
	resumed.Progress = func(done, total int) {
		if start == -1 {
			start = done
		}
	}
	if got := renderReport(t, mustRun(t, resumed)); got != want {
		t.Errorf("resume-from-complete differs:\n%s\nvs\n%s", got, want)
	}
	if start != 5 {
		t.Errorf("resume restored %d shards, want all 5", start)
	}
}

// TestCheckpointWriteFailureReturnsError points the snapshots into a
// directory that does not exist, with and without periodic snapshots: Run
// must return the write's failure.
func TestCheckpointWriteFailureReturnsError(t *testing.T) {
	for _, every := range []int{0, 1} {
		cfg := testConfig()
		cfg.Workers = 4
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "missing", "fleet.ckpt")
		cfg.CheckpointEvery = every
		if _, err := Run(cfg); err == nil {
			t.Errorf("every %d: Run returned no error for an unwritable checkpoint", every)
		}
	}
}

// TestResumeRejectsMismatchedConfig: a snapshot from one simulation
// identity must not seed another.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	full := testConfig()
	full.CheckpointPath = path
	mustRun(t, full)
	for name, mutate := range map[string]func(*Config){
		"seed":       func(c *Config) { c.Seed++ },
		"theta":      func(c *Config) { c.Theta = 1.0 },
		"shard_size": func(c *Config) { c.ShardSize = 10 },
		"horizon":    func(c *Config) { c.Horizon = 3 * time.Minute },
	} {
		cfg := testConfig()
		cfg.CheckpointPath = path
		cfg.Resume = true
		mutate(&cfg)
		if _, err := Run(cfg); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s mutation: Run returned %v, want ErrCheckpointMismatch", name, err)
		}
	}
}

// TestResumeRejectsCorruptCheckpoint covers the non-hash validation paths.
func TestResumeRejectsCorruptCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.CheckpointPath = path
	cfg.Resume = true
	if _, err := Run(cfg); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "missing.ckpt")
	if _, err := Run(cfg); err == nil {
		t.Error("missing checkpoint accepted")
	}
}

// TestResumeFromHandEditedSketches resumes from checkpoints whose sketch
// JSON was edited by hand. In-grid zero-count buckets outside the occupied
// span restore to the same report; an alpha below stats.MinSketchAlpha,
// whose grid would let two bucket indices size a span beyond memory, is
// refused with an error.
func TestResumeFromHandEditedSketches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	full := testConfig()
	full.CheckpointPath = path
	want := renderReport(t, mustRun(t, full))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	resumeEdited := func(edit func(sketch map[string]any)) (*Report, error) {
		t.Helper()
		var ck map[string]any
		dec := json.NewDecoder(bytes.NewReader(orig))
		dec.UseNumber()
		if err := dec.Decode(&ck); err != nil {
			t.Fatal(err)
		}
		edit(ck["sketches"].([]any)[0].(map[string]any)["saved_sketch"].(map[string]any))
		data, err := json.Marshal(ck)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		cfg.CheckpointPath = path
		cfg.Resume = true
		return Run(cfg)
	}
	rep, err := resumeEdited(func(sk map[string]any) {
		pos := sk["pos"].([]any)
		zero := func(i int) any { return map[string]any{"i": i, "c": 0} }
		sk["pos"] = append(append([]any{zero(-1036)}, pos...), zero(35488))
	})
	if err != nil {
		t.Fatalf("resume with zero-count buckets: %v", err)
	}
	if got := renderReport(t, rep); got != want {
		t.Errorf("zero-count buckets changed the report:\n%s\nvs\n%s", got, want)
	}
	if _, err := resumeEdited(func(sk map[string]any) {
		sk["alpha"] = 1e-12
		sk["pos"] = []any{map[string]any{"i": -1, "c": 1}, map[string]any{"i": int64(3e14), "c": 1}}
		sk["zero"], sk["count"] = 0, 2
		delete(sk, "neg")
	}); err == nil {
		t.Error("checkpoint sketch with alpha 1e-12 accepted")
	}
}

// TestResumeRejectsDisagreeingCounts resumes from the snapshot of a
// default3000 run halted after its first two shards, edited so that it
// claims another schema version or its counts disagree, and every edit
// must be refused:
//
//   - version_1 and version_2 claim an earlier schema, whose snapshots do
//     not resume (ErrCheckpointMismatch);
//   - the prefix's class devices no longer sum to its shards', or its
//     total's;
//   - a moment of the prefix or the total no longer counts the devices it
//     claims;
//   - a run sketch no longer counts its class's prefix devices.
//
// Each count edit but the moved device and the extra folded shard keeps
// what the other rules check consistent, so only the rule under test can
// refuse it: a sketch edit moves its zero bucket and its count together,
// and the devices added to the prefix or the total are added to their
// moments (and the prefix's to its class's sketches).
// The count edits' v2_ prefix names the schema that introduced the prefix,
// total and sketches.
func TestResumeRejectsDisagreeingCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	halted := default3000()
	halted.CheckpointPath = path
	var polls atomic.Int64
	halted.Halt = func() bool { return polls.Add(1) > 2 }
	if _, err := Run(halted); !errors.Is(err, ErrHalted) {
		t.Fatalf("halted run returned %v, want ErrHalted", err)
	}
	snapshot, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bump := func(m map[string]any, key string, by int64) {
		n, err := m[key].(json.Number).Int64()
		if err != nil {
			t.Fatal(err)
		}
		m[key] = n + by
	}
	// first walks path from the snapshot's root, taking the first element
	// of every list on the way: class 0.
	first := func(ck map[string]any, path ...string) map[string]any {
		var v any = ck
		for _, key := range path {
			v = v.(map[string]any)[key]
			if list, ok := v.([]any); ok {
				v = list[0]
			}
		}
		return v.(map[string]any)
	}
	moments := []string{"without_j", "with_j", "saved_j", "saving", "delay_s", "violation"}
	sketches := []string{"saved_sketch", "saving_sketch", "delay_sketch"}
	// addDevices adds n devices to a class and to each of its moments'
	// counts, so the class stays consistent with itself.
	addDevices := func(class map[string]any, n int64) {
		bump(class, "devices", n)
		for _, m := range moments {
			bump(class[m].(map[string]any), "n", n)
		}
	}
	edits := map[string]func(ck map[string]any){
		"version_1": func(ck map[string]any) { ck["version"] = 1 },
		"version_2": func(ck map[string]any) { ck["version"] = 2 },
		"v2_prefix_devices_plus_5": func(ck map[string]any) {
			addDevices(first(ck, "prefix"), 5)
			for _, sk := range sketches {
				bump(first(ck, "sketches", sk), "zero", 5)
				bump(first(ck, "sketches", sk), "count", 5)
			}
		},
		"v2_prefix_devices_moved": func(ck map[string]any) {
			classes := ck["prefix"].([]any)
			from := slices.IndexFunc(classes, func(c any) bool { return c.(map[string]any)["devices"].(json.Number).String() != "0" })
			bump(classes[from].(map[string]any), "devices", -1)
			bump(classes[(from+1)%len(classes)].(map[string]any), "devices", 1)
		},
		"v2_folded_plus_1":        func(ck map[string]any) { bump(ck, "folded", 1) },
		"v2_total_devices_plus_5": func(ck map[string]any) { addDevices(first(ck, "total"), 5) },
	}
	for _, m := range moments {
		edits["v2_prefix_"+m+"_n"] = func(ck map[string]any) { bump(first(ck, "prefix", m), "n", 1) }
		edits["v2_total_"+m+"_n"] = func(ck map[string]any) { bump(first(ck, "total", m), "n", 1) }
	}
	for _, sk := range sketches {
		edits["v2_"+sk+"_count"] = func(ck map[string]any) {
			bump(first(ck, "sketches", sk), "zero", 1)
			bump(first(ck, "sketches", sk), "count", 1)
		}
	}
	for name, edit := range edits {
		t.Run(name, func(t *testing.T) {
			var ck map[string]any
			dec := json.NewDecoder(bytes.NewReader(snapshot))
			dec.UseNumber()
			if err := dec.Decode(&ck); err != nil {
				t.Fatal(err)
			}
			edit(ck)
			data, err := json.Marshal(ck)
			if err != nil {
				t.Fatal(err)
			}
			edited := filepath.Join(t.TempDir(), "edited.ckpt")
			if err := os.WriteFile(edited, data, 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := default3000()
			cfg.CheckpointPath = edited
			cfg.Resume = true
			// An edit that is accepted must not run the fleet to show it.
			cfg.Halt = func() bool { return true }
			_, err = Run(cfg)
			if errors.Is(err, ErrHalted) {
				t.Fatal("edited checkpoint accepted")
			}
			if strings.HasPrefix(name, "version_") && !errors.Is(err, ErrCheckpointMismatch) {
				t.Errorf("resume returned %v, want ErrCheckpointMismatch", err)
			}
			t.Log(err)
		})
	}
}

// TestResumeAfterRandomHalt is the resume contract as a property: at 1
// and 8 workers and shard sizes 1, 7 and 64, runs halted after a random
// number of shards, and snapshots copied at a random completion while
// later shards still run (when shards finish out of order, some of them
// wait beyond the prefix, and a resume runs them again), each resume, at
// a random worker count, to the uninterrupted report in full precision.
// Every snapshot is a version-3 file of exactly the prefix's six members.
func TestResumeAfterRandomHalt(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, workers := range []int{1, 8} {
		for _, shardSize := range []int{1, 7, 64} {
			base := Config{Devices: 130, ShardSize: shardSize, Workers: workers, Seed: 11, Horizon: 2 * time.Minute, Theta: 4, K: 20}
			want := string(goldenLines(t, mustRun(t, base)))
			shards := (base.Devices + shardSize - 1) / shardSize
			for trial := 0; trial < 3; trial++ {
				haltAt, copyAt := rng.Intn(shards+1), 1+rng.Intn(shards)
				resumeWorkers := []int{1, 3, 8}[rng.Intn(3)]
				name := fmt.Sprintf("workers_%d/shard_size_%d/halt_%d_copy_%d", workers, shardSize, haltAt, copyAt)
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					path, snapshot := filepath.Join(dir, "fleet.ckpt"), filepath.Join(dir, "snapshot.ckpt")
					interrupted := base
					interrupted.CheckpointPath = path
					interrupted.CheckpointEvery = 1
					// At completion copyAt the file holds the snapshot taken
					// at the completion before it, if any.
					interrupted.Progress = func(done, total int) {
						if done != copyAt {
							return
						}
						if data, err := os.ReadFile(path); err == nil {
							if err := os.WriteFile(snapshot, data, 0o644); err != nil {
								t.Error(err)
							}
						}
					}
					var polls atomic.Int64
					interrupted.Halt = func() bool { return polls.Add(1) > int64(haltAt) }
					if _, err := Run(interrupted); haltAt < shards && !errors.Is(err, ErrHalted) {
						t.Fatalf("interrupted run returned %v, want ErrHalted", err)
					}
					for _, from := range []string{path, snapshot} {
						data, err := os.ReadFile(from)
						if err != nil {
							continue // no snapshot was taken before copyAt
						}
						var members map[string]json.RawMessage
						if err := json.Unmarshal(data, &members); err != nil {
							t.Fatal(err)
						}
						var keys []string
						for k := range members {
							keys = append(keys, k)
						}
						slices.Sort(keys)
						if string(members["version"]) != "3" || !slices.Equal(keys, []string{"config_hash", "folded", "prefix", "sketches", "total", "version"}) {
							t.Errorf("%s: version %s with members %v, want version 3 with exactly the prefix's six members", filepath.Base(from), members["version"], keys)
						}
						resumed := base
						resumed.Workers = resumeWorkers
						resumed.CheckpointPath = from
						resumed.Resume = true
						if got := string(goldenLines(t, mustRun(t, resumed))); got != want {
							t.Errorf("resumed from %s: aggregates differ from the uninterrupted run:\n%s\nvs\n%s", filepath.Base(from), got, want)
						}
					}
				})
			}
		}
	}
}

// TestConfigValidation exercises normalize's error paths.
func TestConfigValidation(t *testing.T) {
	cases := map[string]func(*Config){
		"no_devices":     func(c *Config) { c.Devices = 0 },
		"neg_shard":      func(c *Config) { c.ShardSize = -1 },
		"neg_horizon":    func(c *Config) { c.Horizon = -time.Second },
		"neg_theta":      func(c *Config) { c.Theta = -1 },
		"neg_k":          func(c *Config) { c.K = -2 },
		"bad_alpha":      func(c *Config) { c.SketchAlpha = 1.5 },
		"alpha_too_fine": func(c *Config) { c.SketchAlpha = stats.MinSketchAlpha / 2 },
		"neg_ckpt_every": func(c *Config) { c.CheckpointEvery = -1 },
		"resume_no_path": func(c *Config) { c.Resume = true },
		"bad_mix_weight": func(c *Config) { c.Mix = []workload.ClassShare{{Class: workload.ClassActive, Weight: -1}} },
	}
	for name, mutate := range cases {
		mutate := mutate
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			mutate(&cfg)
			if _, _, err := cfg.normalize(); err == nil {
				t.Errorf("%s accepted", name)
			}
		})
	}
}

// TestNormalizeDefaults pins the documented zero-value behavior.
func TestNormalizeDefaults(t *testing.T) {
	norm, pop, err := (Config{Devices: 10}).normalize()
	if err != nil {
		t.Fatal(err)
	}
	if pop == nil {
		t.Fatal("nil population")
	}
	if norm.ShardSize != DefaultShardSize || norm.K != DefaultK || norm.Workers != 1 {
		t.Errorf("defaults: shard=%d k=%d workers=%d", norm.ShardSize, norm.K, norm.Workers)
	}
	if norm.Horizon != workload.SessionLength {
		t.Errorf("default horizon %v", norm.Horizon)
	}
	if norm.SketchAlpha != stats.DefaultSketchAlpha {
		t.Errorf("default alpha %v", norm.SketchAlpha)
	}
}

// TestHashIgnoresExecutionKnobs: worker count and checkpoint cadence are
// not part of the simulation identity; seed and layout are.
func TestHashIgnoresExecutionKnobs(t *testing.T) {
	base, _, err := testConfig().normalize()
	if err != nil {
		t.Fatal(err)
	}
	other := testConfig()
	other.Workers = 8
	other.CheckpointEvery = 3
	other.CheckpointPath = "x"
	normOther, _, err := other.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if base.hash() != normOther.hash() {
		t.Error("hash depends on execution knobs")
	}
	seeded := testConfig()
	seeded.Seed++
	normSeeded, _, err := seeded.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if base.hash() == normSeeded.hash() {
		t.Error("hash ignores seed")
	}
}
