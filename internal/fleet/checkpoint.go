package fleet

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"

	"etrain/internal/tracefile"
)

// checkpointVersion names the snapshot schema a run writes. Version 1 held
// every completed shard's aggregate, so its size grew with the fleet;
// version 2 holds the run's fold, whose size does not. Resume reads both.
const checkpointVersion = 2

// hashToken opens Config.hash's canonical text. It once was the checkpoint
// schema's number too; the schema moved on without changing what a run
// simulates, and every report prints the hash, so the token stays.
const hashToken = "fleet/v1"

// ErrCheckpointMismatch reports a checkpoint written by a different
// configuration (or schema version) than the one trying to resume from it.
// Resuming such a snapshot would silently change results, so it is refused.
var ErrCheckpointMismatch = errors.New("fleet: checkpoint does not match this configuration")

// checkpointHeader opens every snapshot version: the schema and the run
// identity.
type checkpointHeader struct {
	Version    int    `json:"version"`
	ConfigHash string `json:"config_hash"`
}

// checkpointFile is the version-2 snapshot, the run's fold. Its size
// depends on the mix, the sketches' occupied buckets and the pending
// shards, not on the device count. Moments and sketches round-trip
// bit-exactly through JSON (shortest-representation float encoding), so a
// resumed run's report is byte-identical to an uninterrupted one's.
type checkpointFile struct {
	checkpointHeader
	// Folded counts the shards of the folded prefix, [0, Folded).
	Folded int `json:"folded"`
	// Prefix and Total are the prefix's class and total moments.
	Prefix []ClassMoments `json:"prefix"`
	Total  ClassMoments   `json:"total"`
	// Sketches count the devices of the prefix and of the pending shards,
	// one entry per mix entry.
	Sketches []ClassSketches `json:"sketches"`
	// Pending holds the finished shards beyond the prefix, in shard order.
	Pending []*shardMoments `json:"pending"`
}

// checkpointV1 is the version-1 snapshot: every completed shard's class
// moments and sketches, in shard order.
type checkpointV1 struct {
	checkpointHeader
	Shards []*shardV1 `json:"shards"`
}

// shardV1 is one shard of a version-1 snapshot.
type shardV1 struct {
	Shard   int              `json:"shard"`
	Devices int              `json:"devices"`
	Classes []ClassAggregate `json:"classes"`
}

// writeCheckpoint atomically snapshots the fold as a version-2 snapshot
// in compact JSON (most of a snapshot is sketch buckets, which
// indentation would triple); a crash mid-write leaves the previous
// snapshot intact.
func writeCheckpoint(path, hash string, f *fold) error {
	ck := checkpointFile{
		checkpointHeader: checkpointHeader{Version: checkpointVersion, ConfigHash: hash},
		Folded:           f.folded,
		Prefix:           f.prefix,
		Total:            f.total,
		Sketches:         f.sketches,
		Pending:          make([]*shardMoments, 0, len(f.pending)),
	}
	for _, sm := range f.pending {
		ck.Pending = append(ck.Pending, sm)
	}
	slices.SortFunc(ck.Pending, func(a, b *shardMoments) int { return cmp.Compare(a.Shard, b.Shard) })
	data, err := json.Marshal(&ck)
	if err != nil {
		return fmt.Errorf("fleet: checkpoint: %w", err)
	}
	if err := tracefile.WriteFileAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("fleet: checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint reads a snapshot of either version into the empty fold
// f, after checking it was written by this exact configuration and that
// its counts agree with the layout and with each other.
func loadCheckpoint(path, hash string, cfg *Config, f *fold) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("fleet: read checkpoint: %w", err)
	}
	var h checkpointHeader
	if err := json.Unmarshal(data, &h); err != nil {
		return fmt.Errorf("fleet: parse checkpoint %s: %w", path, err)
	}
	if h.Version != 1 && h.Version != checkpointVersion {
		return fmt.Errorf("%w: snapshot version %d, want 1 or %d", ErrCheckpointMismatch, h.Version, checkpointVersion)
	}
	if h.ConfigHash != hash {
		return fmt.Errorf("%w: snapshot hash %s, config hash %s", ErrCheckpointMismatch, h.ConfigHash, hash)
	}
	if h.Version == 1 {
		err = f.loadV1(data, cfg)
	} else {
		err = f.loadV2(data, cfg)
	}
	if err != nil {
		return fmt.Errorf("fleet: checkpoint %s: %w", path, err)
	}
	return nil
}

// loadV2 restores a version-2 snapshot.
func (f *fold) loadV2(data []byte, cfg *Config) error {
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return err
	}
	if ck.Folded < 0 || ck.Folded > cfg.shardCount() {
		return fmt.Errorf("folded prefix of %d shards outside [0, %d]", ck.Folded, cfg.shardCount())
	}
	if len(ck.Prefix) != len(cfg.Mix) || len(ck.Sketches) != len(cfg.Mix) {
		return fmt.Errorf("%d prefix classes and %d sketch classes, config has %d", len(ck.Prefix), len(ck.Sketches), len(cfg.Mix))
	}
	counts := make([]int, len(cfg.Mix))
	sum := 0
	for c := range ck.Prefix {
		if err := ck.Prefix[c].checkCounts(); err != nil {
			return fmt.Errorf("prefix class %d: %w", c, err)
		}
		counts[c] = ck.Prefix[c].Devices
		sum += counts[c]
	}
	want := min(ck.Folded*cfg.ShardSize, cfg.Devices)
	if sum != want {
		return fmt.Errorf("prefix classes hold %d devices, its %d shards %d", sum, ck.Folded, want)
	}
	if err := ck.Total.checkCounts(); err != nil {
		return fmt.Errorf("prefix total: %w", err)
	}
	if ck.Total.Devices != want {
		return fmt.Errorf("prefix total holds %d devices, its %d shards %d", ck.Total.Devices, ck.Folded, want)
	}
	for _, sm := range ck.Pending {
		if sm == nil {
			return errors.New("null pending shard")
		}
		if err := sm.validate(cfg); err != nil {
			return err
		}
		if sm.Shard < ck.Folded {
			return fmt.Errorf("pending shard %d inside the folded prefix [0, %d)", sm.Shard, ck.Folded)
		}
		if _, dup := f.pending[sm.Shard]; dup {
			return fmt.Errorf("repeats shard %d", sm.Shard)
		}
		f.pending[sm.Shard] = sm
		for c := range sm.Classes {
			counts[c] += sm.Classes[c].Devices
		}
	}
	for c := range ck.Sketches {
		if err := ck.Sketches[c].checkCounts(counts[c]); err != nil {
			return fmt.Errorf("sketches of class %d: %w", c, err)
		}
		if err := f.sketches[c].merge(&ck.Sketches[c]); err != nil {
			return fmt.Errorf("sketches of class %d: %w", c, err)
		}
	}
	f.folded, f.total = ck.Folded, ck.Total
	copy(f.prefix, ck.Prefix)
	f.advance()
	return nil
}

// loadV1 restores a version-1 snapshot: each shard's sketches merge into
// the run's and its moments go pending, so the shards that start at 0 and
// follow one another fold in shard order and the rest wait.
func (f *fold) loadV1(data []byte, cfg *Config) error {
	var ck checkpointV1
	if err := json.Unmarshal(data, &ck); err != nil {
		return err
	}
	for _, sh := range ck.Shards {
		if sh == nil {
			return errors.New("null shard entry")
		}
		sm := &shardMoments{Shard: sh.Shard, Devices: sh.Devices, Classes: make([]ClassMoments, len(sh.Classes))}
		for c := range sh.Classes {
			sm.Classes[c] = sh.Classes[c].ClassMoments
		}
		if err := sm.validate(cfg); err != nil {
			return err
		}
		if _, dup := f.pending[sm.Shard]; dup {
			return fmt.Errorf("repeats shard %d", sm.Shard)
		}
		for c := range sh.Classes {
			k := &sh.Classes[c].ClassSketches
			if err := k.checkCounts(sh.Classes[c].Devices); err != nil {
				return fmt.Errorf("shard %d class %d: %w", sh.Shard, c, err)
			}
			if err := f.sketches[c].merge(k); err != nil {
				return fmt.Errorf("shard %d class %d: %w", sh.Shard, c, err)
			}
		}
		f.pending[sm.Shard] = sm
	}
	f.advance()
	return nil
}
