package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"etrain/internal/tracefile"
)

// checkpointVersion names the snapshot schema, the only one a run writes
// and resumes. Version 3 holds the folded prefix alone; files of earlier
// versions are refused.
const checkpointVersion = 3

// hashToken opens Config.hash's canonical text. It once was the checkpoint
// schema's number too; the schema moved on without changing what a run
// simulates, and every report prints the hash, so the token stays.
const hashToken = "fleet/v1"

// ErrCheckpointMismatch reports a checkpoint written by a different
// configuration (or schema version) than the one trying to resume from it.
// Resuming such a snapshot would silently change results, so it is refused.
var ErrCheckpointMismatch = errors.New("fleet: checkpoint does not match this configuration")

// checkpointFile is a snapshot: the run's identity and its folded prefix.
// Its size depends on the mix and the sketches' occupied buckets, not on
// the device count. Shards finished beyond the prefix are not in it; a
// resume runs them again. Moments and sketches round-trip bit-exactly
// through JSON (shortest-representation float encoding), so a resumed
// run's report is byte-identical to an uninterrupted one's.
type checkpointFile struct {
	Version    int    `json:"version"`
	ConfigHash string `json:"config_hash"`
	// Folded counts the shards of the prefix, [0, Folded).
	Folded int `json:"folded"`
	// Prefix and Total are the prefix's class and total moments.
	Prefix []ClassMoments `json:"prefix"`
	Total  ClassMoments   `json:"total"`
	// Sketches count the prefix's devices, one entry per mix entry.
	Sketches []ClassSketches `json:"sketches"`
}

// writeCheckpoint atomically snapshots the fold's prefix in compact JSON
// (most of a snapshot is sketch buckets, which indentation would triple);
// a crash mid-write leaves the previous snapshot intact.
func writeCheckpoint(path, hash string, f *fold) error {
	data, err := json.Marshal(&checkpointFile{
		Version:    checkpointVersion,
		ConfigHash: hash,
		Folded:     f.folded,
		Prefix:     f.prefix,
		Total:      f.total,
		Sketches:   f.sketches,
	})
	if err != nil {
		return fmt.Errorf("fleet: checkpoint: %w", err)
	}
	if err := tracefile.WriteFileAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("fleet: checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint reads a snapshot into the empty fold f, after checking it
// was written by this exact configuration and schema and that its counts
// agree with the layout and with each other. A checkpoint is input from
// outside the program, and a prefix whose counts disagree would resume to
// a report about another fleet.
func loadCheckpoint(path, hash string, cfg *Config, f *fold) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("fleet: read checkpoint: %w", err)
	}
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return fmt.Errorf("fleet: parse checkpoint %s: %w", path, err)
	}
	if ck.Version != checkpointVersion {
		return fmt.Errorf("%w: snapshot version %d, want %d", ErrCheckpointMismatch, ck.Version, checkpointVersion)
	}
	if ck.ConfigHash != hash {
		return fmt.Errorf("%w: snapshot hash %s, config hash %s", ErrCheckpointMismatch, ck.ConfigHash, hash)
	}
	if err := f.restore(&ck, cfg); err != nil {
		return fmt.Errorf("fleet: checkpoint %s: %w", path, err)
	}
	return nil
}

// restore loads ck's prefix into the empty fold f once its counts agree
// with the layout and with each other: the prefix's class devices, and its
// total's, sum to its shards' devices; each moment counts the devices its
// class or the total claims; and each class's sketches count that class's
// devices.
func (f *fold) restore(ck *checkpointFile, cfg *Config) error {
	if ck.Folded < 0 || ck.Folded > cfg.shardCount() {
		return fmt.Errorf("folded prefix of %d shards outside [0, %d]", ck.Folded, cfg.shardCount())
	}
	if len(ck.Prefix) != len(cfg.Mix) || len(ck.Sketches) != len(cfg.Mix) {
		return fmt.Errorf("%d prefix classes and %d sketch classes, config has %d", len(ck.Prefix), len(ck.Sketches), len(cfg.Mix))
	}
	want := min(ck.Folded*cfg.ShardSize, cfg.Devices)
	sum := 0
	for c := range ck.Prefix {
		if err := ck.Prefix[c].checkCounts(); err != nil {
			return fmt.Errorf("prefix class %d: %w", c, err)
		}
		if err := ck.Sketches[c].checkCounts(ck.Prefix[c].Devices); err != nil {
			return fmt.Errorf("sketches of class %d: %w", c, err)
		}
		if err := f.sketches[c].merge(&ck.Sketches[c]); err != nil {
			return fmt.Errorf("sketches of class %d: %w", c, err)
		}
		sum += ck.Prefix[c].Devices
	}
	if sum != want {
		return fmt.Errorf("prefix classes hold %d devices, its %d shards %d", sum, ck.Folded, want)
	}
	if err := ck.Total.checkCounts(); err != nil {
		return fmt.Errorf("prefix total: %w", err)
	}
	if ck.Total.Devices != want {
		return fmt.Errorf("prefix total holds %d devices, its %d shards %d", ck.Total.Devices, ck.Folded, want)
	}
	f.folded, f.total = ck.Folded, ck.Total
	copy(f.prefix, ck.Prefix)
	return nil
}
