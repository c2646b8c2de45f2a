package fleet

import (
	"errors"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"etrain/internal/diurnal"
	"etrain/internal/heartbeat"
	"etrain/internal/workload"
)

func mustPopulation(t *testing.T) *workload.Population {
	t.Helper()
	pop, err := workload.NewPopulation(workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// diurnalConfig compresses a full week into the 2-minute test horizon
// (scale 5040 ≈ one week / 2 min) under the LTE DRX radio, so the tests
// sweep every day phase of the weekly curve without a long wall-clock run.
func diurnalConfig(t *testing.T) Config {
	t.Helper()
	prof, err := diurnal.ByName("week")
	if err != nil {
		t.Fatal(err)
	}
	p := *prof
	p.TimeScale = 5040
	p.PhaseJitter = 6 * time.Hour
	cfg := testConfig()
	cfg.Diurnal = &p
	cfg.Radio = "lte-drx"
	return cfg
}

// TestDiurnalFleetDeterministicAcrossWorkers extends the headline
// determinism contract to diurnal fleets: a week-compressed LTE-DRX run
// renders byte-identically at 1, 4 and 8 workers.
func TestDiurnalFleetDeterministicAcrossWorkers(t *testing.T) {
	base := diurnalConfig(t)
	base.Workers = 1
	want := renderReport(t, mustRun(t, base))
	for _, workers := range []int{4, 8} {
		cfg := diurnalConfig(t)
		cfg.Workers = workers
		if got := renderReport(t, mustRun(t, cfg)); got != want {
			t.Errorf("diurnal report at %d workers differs from 1 worker:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestDiurnalFleetCheckpointResume interrupts a diurnal run mid-flight
// and resumes from the snapshot: the report must match the uninterrupted
// run byte for byte, proving the diurnal state is fully captured by the
// config hash.
func TestDiurnalFleetCheckpointResume(t *testing.T) {
	cfg := diurnalConfig(t)
	want := renderReport(t, mustRun(t, cfg))
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	interrupted := diurnalConfig(t)
	interrupted.CheckpointPath = path
	interrupted.CheckpointEvery = 1
	var completed atomic.Int64
	interrupted.Progress = func(done, total int) { completed.Store(int64(done)) }
	interrupted.Halt = func() bool { return completed.Load() >= 2 }
	if _, err := Run(interrupted); !errors.Is(err, ErrHalted) {
		t.Fatalf("interrupted run returned %v, want ErrHalted", err)
	}
	resumed := diurnalConfig(t)
	resumed.CheckpointPath = path
	resumed.Resume = true
	if got := renderReport(t, mustRun(t, resumed)); got != want {
		t.Errorf("resumed diurnal report differs:\n%s\nvs\n%s", got, want)
	}
}

// TestDiurnalFleetChangesOutcome: attaching the profile/radio must
// actually reshape the run — identical output would mean the options are
// silently dropped.
func TestDiurnalFleetChangesOutcome(t *testing.T) {
	legacy := renderReport(t, mustRun(t, testConfig()))
	diurnalOnly := diurnalConfig(t)
	diurnalOnly.Radio = ""
	if got := renderReport(t, mustRun(t, diurnalOnly)); got == legacy {
		t.Error("diurnal profile did not change the report")
	}
	radioOnly := testConfig()
	radioOnly.Radio = "lte-drx"
	if got := renderReport(t, mustRun(t, radioOnly)); got == legacy {
		t.Error("radio model did not change the report")
	}
}

// TestHashDiurnalRadioTokens: the diurnal and radio tokens enter the
// config hash only when set, so every pre-existing checkpoint hash is
// unchanged, while distinct profiles and radios never collide.
func TestHashDiurnalRadioTokens(t *testing.T) {
	legacy, _, err := testConfig().normalize()
	if err != nil {
		t.Fatal(err)
	}
	withRadio := testConfig()
	withRadio.Radio = "lte-drx"
	normRadio, _, err := withRadio.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if legacy.hash() == normRadio.hash() {
		t.Error("radio model not part of the config hash")
	}
	withDiurnal := diurnalConfig(t)
	withDiurnal.Radio = ""
	normDiurnal, _, err := withDiurnal.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if legacy.hash() == normDiurnal.hash() {
		t.Error("diurnal profile not part of the config hash")
	}
	rescaled := diurnalConfig(t)
	rescaled.Radio = ""
	rescaled.Diurnal.TimeScale = 504
	normRescaled, _, err := rescaled.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if normDiurnal.hash() == normRescaled.hash() {
		t.Error("profile time scale not part of the config hash")
	}
}

// TestDiurnalConfigValidation covers the new normalize error paths.
func TestDiurnalConfigValidation(t *testing.T) {
	bad := testConfig()
	bad.Radio = "6g"
	if _, _, err := bad.normalize(); err == nil {
		t.Error("unknown radio model accepted")
	}
	invalid := diurnalConfig(t)
	invalid.Diurnal.TimeScale = -1
	if _, _, err := invalid.normalize(); err == nil {
		t.Error("invalid diurnal profile accepted")
	}
}

// TestSynthesizeDeviceOptsLegacyEquivalence: the opts path without a
// profile is draw-for-draw the legacy path, and the flat no-event profile
// leaves the beat schedule exactly at heartbeat.Merge.
func TestSynthesizeDeviceOptsLegacyEquivalence(t *testing.T) {
	pop := mustPopulation(t)
	for i := 0; i < 5; i++ {
		plain, err := SynthesizeDevice(7, pop, i, 2*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		opts, err := SynthesizeDeviceOpts(7, pop, i, 2*time.Minute, DeviceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if opts.Beats != nil {
			t.Fatalf("device %d: beats set without a profile", i)
		}
		if plain.Seed != opts.Seed || plain.ClassIndex != opts.ClassIndex ||
			plain.BandwidthSeed != opts.BandwidthSeed || len(plain.Packets) != len(opts.Packets) {
			t.Fatalf("device %d: opts synthesis diverged from legacy", i)
		}
		for j := range plain.Packets {
			a, b := plain.Packets[j], opts.Packets[j]
			if a.ID != b.ID || a.App != b.App || a.ArrivedAt != b.ArrivedAt || a.Size != b.Size {
				t.Fatalf("device %d packet %d diverged: %+v vs %+v", i, j, a, b)
			}
		}

		flat, err := diurnal.ByName("flat")
		if err != nil {
			t.Fatal(err)
		}
		dev, err := SynthesizeDeviceOpts(7, pop, i, 2*time.Minute, DeviceOptions{Diurnal: flat})
		if err != nil {
			t.Fatal(err)
		}
		want := heartbeat.Merge(dev.Trains, dev.Horizon, nil)
		if !reflect.DeepEqual(dev.Beats, want) {
			t.Fatalf("device %d: flat profile perturbed the beat schedule", i)
		}
	}
}

// TestSynthesizeDeviceOptsBeatStorm: a profile's beat factor reaches the
// device's schedule. A factor-2 storm over the whole run gives exactly
// the beats of the same trains at half their cycles.
func TestSynthesizeDeviceOptsBeatStorm(t *testing.T) {
	pop := mustPopulation(t)
	flat, err := diurnal.ByName("flat")
	if err != nil {
		t.Fatal(err)
	}
	storm := flat.WithEvents(diurnal.Event{Name: "storm", Duration: time.Hour, BeatFactor: 2})
	for i := 0; i < 5; i++ {
		dev, err := SynthesizeDeviceOpts(7, pop, i, 20*time.Minute, DeviceOptions{Diurnal: storm})
		if err != nil {
			t.Fatal(err)
		}
		halved := append([]heartbeat.TrainApp(nil), dev.Trains...)
		for j := range halved {
			halved[j].Policy = heartbeat.FixedCycle(halved[j].Policy.IntervalAfter(0) / 2)
		}
		if want := heartbeat.Merge(halved, dev.Horizon, nil); !reflect.DeepEqual(dev.Beats, want) {
			t.Fatalf("device %d: storm gave %d beats, want %d at halved cycles", i, len(dev.Beats), len(want))
		}
	}
}
