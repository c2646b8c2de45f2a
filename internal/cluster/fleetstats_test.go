package cluster

import (
	"bytes"
	"strings"
	"testing"

	"etrain/internal/wire"
)

// synthSnapshot builds a deterministic per-device snapshot from the
// device index alone — no randomness, so every test run folds identical
// inputs.
func synthSnapshot(i int) wire.StatsSnapshot {
	f := float64(i + 1)
	return wire.StatsSnapshot{
		DeviceID:       uint64(i),
		EnergyJ:        100.0/f + 3.25*f,
		AvgDelayS:      1.0 / (f + 0.5),
		ViolationRatio: float64(i%7) / 13.0,
		DataPackets:    uint64(3*i + 1),
		Heartbeats:     uint64(17 + i%5),
		ForcedFlush:    uint64(i % 3),
	}
}

func foldDeviceOrder(t *testing.T, n int) *FleetStats {
	t.Helper()
	fs, err := NewFleetStats(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		fs.Add(synthSnapshot(i))
	}
	return fs
}

// TestFleetStatsFoldReproducible: the device-order fold is bit-exactly
// reproducible — two independent folds of the same device set render
// byte-identical text reports.
func TestFleetStatsFoldReproducible(t *testing.T) {
	a, b := foldDeviceOrder(t, 300), foldDeviceOrder(t, 300)
	if a.Report() != b.Report() {
		t.Fatalf("reports differ:\n%+v\n%+v", a.Report(), b.Report())
	}
	var ta, tb bytes.Buffer
	if err := a.Report().WriteText(&ta); err != nil {
		t.Fatal(err)
	}
	if err := b.Report().WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Fatalf("text reports differ:\n%s\n%s", ta.String(), tb.String())
	}
}

// TestFleetStatsShardingInvariance is the cluster's merged-stats
// contract: per-device snapshots collected from ANY shard layout, then
// folded in device-index order, give the same bits as a single-process
// run. The shard layout only decides who produced each snapshot — the
// snapshots themselves are deterministic per device, and the fold order
// is fixed — so the aggregate is a pure function of the device set.
func TestFleetStatsShardingInvariance(t *testing.T) {
	const devices = 300
	baseline := foldDeviceOrder(t, devices)

	for _, members := range [][]uint64{{1}, {1, 2, 3}, {4, 9, 23, 99}} {
		ring := BuildRing(42, DefaultVnodes, members)
		// "Serve" each device on its shard: collect snapshots into a
		// device-indexed slice, as etrain-load does, regardless of which
		// shard produced them or in what completion order they landed.
		collected := make([]wire.StatsSnapshot, devices)
		for _, m := range members {
			for i := devices - 1; i >= 0; i-- { // per-shard completion order scrambled
				if owner, _ := ring.Owner(uint64(i)); owner == m {
					collected[i] = synthSnapshot(i)
				}
			}
		}
		fs, err := NewFleetStats(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range collected {
			fs.Add(collected[i])
		}
		if fs.Report() != baseline.Report() {
			t.Fatalf("%d-shard layout %v changed the fleet report:\n got %+v\nwant %+v",
				len(members), members, fs.Report(), baseline.Report())
		}
	}
}

// TestFleetReportWriteText pins the text block's shape: every line
// starts with "fleet" (CI extracts the block with a prefix grep) and the
// field order is fixed.
func TestFleetReportWriteText(t *testing.T) {
	var buf bytes.Buffer
	if err := (foldDeviceOrder(t, 10).Report()).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	wantPrefixes := []string{
		"fleet devices",
		"fleet energy_j",
		"fleet delay_s",
		"fleet violation",
		"fleet packets",
	}
	if len(lines) != len(wantPrefixes) {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(wantPrefixes), buf.String())
	}
	for i, want := range wantPrefixes {
		if !strings.HasPrefix(lines[i], want) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], want)
		}
	}
	if !strings.Contains(lines[0], " 10") {
		t.Errorf("devices line %q does not count 10", lines[0])
	}
}

// TestFleetStatsEmpty: an empty accumulator reports zeros and renders
// without error.
func TestFleetStatsEmpty(t *testing.T) {
	fs, err := NewFleetStats(0)
	if err != nil {
		t.Fatal(err)
	}
	r := fs.Report()
	if r != (FleetReport{}) {
		t.Fatalf("empty report %+v", r)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFleetStatsAdd(b *testing.B) {
	fs, err := NewFleetStats(0)
	if err != nil {
		b.Fatal(err)
	}
	snaps := make([]wire.StatsSnapshot, 256)
	for i := range snaps {
		snaps[i] = synthSnapshot(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.Add(snaps[i%len(snaps)])
	}
}
