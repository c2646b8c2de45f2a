package fleet

import (
	"encoding/json"
	"testing"
	"time"

	"etrain/internal/diurnal"
	"etrain/internal/workload"
)

// TestConfigHashPinned pins Config.hash's strings for legacy, radio,
// diurnal and custom-mix configs, as the strings.Builder and fmt.Sprintf
// text it streams replaced gave them: every report prints the hash, and a
// checkpoint resumes only under its own. A hash allocates its string
// alone, and a diurnal profile's hash.
func TestConfigHashPinned(t *testing.T) {
	week, err := diurnal.ByName("week")
	if err != nil {
		t.Fatal(err)
	}
	week.TimeScale = 1008
	mix := []workload.ClassShare{{Class: workload.ClassActive, Weight: 0.5}, {Class: workload.ClassInactive, Weight: 1.25}, {Class: workload.ClassModerate, Weight: 3e-7}}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"legacy", Config{Devices: 1024, Seed: 42}, "cd0e63378cdd5d05"},
		{"legacy-set", Config{Devices: 3000, Seed: 5, Theta: 2.5, K: 7, ShardSize: 100, Horizon: 90 * time.Second, SketchAlpha: 0.005}, "a620e8778ee01c2b"},
		{"radio", Config{Devices: 512, Seed: -3, Radio: "lte-drx"}, "5c1ed3b9948d8ba8"},
		{"diurnal", Config{Devices: 512, Seed: 1, Radio: "nr-drx", Diurnal: week}, "1be4542775fabc07"},
		{"custom-mix", Config{Devices: 77, Seed: 9, Mix: mix, Theta: 1e-9, Horizon: 36*time.Hour + time.Millisecond}, "a8121b65022ec453"},
	} {
		norm, _, err := tc.cfg.normalize()
		if err != nil {
			t.Fatal(err)
		}
		if got := norm.hash(); got != tc.want {
			t.Errorf("%s: hash %s, want %s", tc.name, got, tc.want)
		}
		if norm.Diurnal == nil {
			if allocs := testing.AllocsPerRun(10, func() { norm.hash() }); allocs != 1 {
				t.Errorf("%s: a hash allocates %v times, want 1", tc.name, allocs)
			}
		}
	}
}

// TestSnapshotMatchesEncodingJSON requires appendSnapshot, which writes
// checkpoints into the run's reused buffer, to give the bytes json.Marshal
// writes for the same checkpointFile, on folds whose sketches have
// negative buckets, zero-count buckets inside and around their spans, and
// carried high words; and the snapshot to decode to the same fold.
func TestSnapshotMatchesEncodingJSON(t *testing.T) {
	norm, pop, err := Config{Devices: 1, Seed: 3, Horizon: 2 * time.Minute, Theta: 4, K: 20}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	sc := scratchFor(t, &norm)
	outs := make([]DeviceOutcome, 300)
	for i := range outs {
		if outs[i], err = sc.runDevice(&norm, pop, i); err != nil {
			t.Fatal(err)
		}
	}
	// A device whose eTrain run costs more saves a negative energy.
	outs[7].WithJ = outs[7].WithoutJ * 1.5
	var f fold
	check := func(name string) {
		t.Helper()
		got, err := f.appendSnapshot([]byte("x"), "0123456789abcdef")
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(&checkpointFile{
			Version: checkpointVersion, ConfigHash: "0123456789abcdef", Folded: f.folded,
			Prefix: f.prefix, Total: f.total, Sketches: f.sketches,
		})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "x"+string(want)+"\n" {
			t.Fatalf("%s: snapshot\n%s\nwant\n%s", name, got[1:], want)
		}
		var back checkpointFile
		if err := json.Unmarshal(got[1:], &back); err != nil {
			t.Fatal(err)
		}
		again, err := json.Marshal(&back)
		if err != nil || string(again) != string(want) {
			t.Fatalf("%s: snapshot decodes to %s, %v", name, again, err)
		}
	}
	if err := f.reset(&norm); err != nil {
		t.Fatal(err)
	}
	check("empty")
	f.addShard(outs[:150])
	f.addShard(outs[150:])
	check("two shards")
	// A reset keeps the spans, whose buckets all read zero until the next
	// run's samples arrive.
	if err := f.reset(&norm); err != nil {
		t.Fatal(err)
	}
	f.addShard(outs[100:110])
	check("reset")
	var big ClassSketches
	if err := json.Unmarshal([]byte(`{"saved_sketch":{"alpha":0.01,"count":8589934600,"zero":1,"pos":[{"i":7,"c":8589934599}]},
		"saving_sketch":{"alpha":0.01,"count":4294967297,"zero":0,"neg":[{"i":-40,"c":4294967296},{"i":-2,"c":1}]},
		"delay_sketch":{"alpha":0.01,"count":0,"zero":0}}`), &big); err != nil {
		t.Fatal(err)
	}
	if err := f.sketches[1].merge([]ClassSketches{big}); err != nil {
		t.Fatal(err)
	}
	check("carried")
}
