package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"etrain/internal/tracefile"
)

// checkpointVersion names the snapshot schema; it is also folded into the
// config hash so a schema bump invalidates old checkpoints.
const checkpointVersion = 1

// ErrCheckpointMismatch reports a checkpoint written by a different
// configuration (or schema version) than the one trying to resume from it.
// Resuming such a snapshot would silently change results, so it is refused.
var ErrCheckpointMismatch = errors.New("fleet: checkpoint does not match this configuration")

// checkpointFile is the on-disk snapshot: the run identity plus every
// completed shard's aggregate. Aggregates round-trip bit-exactly through
// JSON (shortest-representation float encoding), so a resumed run's report
// is byte-identical to an uninterrupted one's.
type checkpointFile struct {
	Version    int               `json:"version"`
	ConfigHash string            `json:"config_hash"`
	Shards     []*ShardAggregate `json:"shards"`
}

// writeCheckpoint atomically snapshots the completed shards
// (tracefile.WriteJSONAtomic). A crash mid-write leaves the previous
// snapshot intact.
func writeCheckpoint(path, hash string, aggs []*ShardAggregate, completed []bool) error {
	ck := checkpointFile{Version: checkpointVersion, ConfigHash: hash}
	for s, done := range completed {
		if done && aggs[s] != nil {
			ck.Shards = append(ck.Shards, aggs[s])
		}
	}
	if err := tracefile.WriteJSONAtomic(path, &ck); err != nil {
		return fmt.Errorf("fleet: checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint reads a snapshot, verifies it was written by this exact
// configuration, and prefills the completed shards. It returns how many
// shards were restored.
func loadCheckpoint(path, hash string, aggs []*ShardAggregate, completed []bool, cfg *Config) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("fleet: read checkpoint: %w", err)
	}
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return 0, fmt.Errorf("fleet: parse checkpoint %s: %w", path, err)
	}
	if ck.Version != checkpointVersion {
		return 0, fmt.Errorf("%w: snapshot version %d, want %d", ErrCheckpointMismatch, ck.Version, checkpointVersion)
	}
	if ck.ConfigHash != hash {
		return 0, fmt.Errorf("%w: snapshot hash %s, config hash %s", ErrCheckpointMismatch, ck.ConfigHash, hash)
	}
	n := 0
	for _, sh := range ck.Shards {
		if sh == nil {
			return 0, fmt.Errorf("fleet: checkpoint %s holds a null shard entry", path)
		}
		if err := sh.validateShape(cfg); err != nil {
			return 0, err
		}
		if completed[sh.Shard] {
			return 0, fmt.Errorf("fleet: checkpoint %s repeats shard %d", path, sh.Shard)
		}
		aggs[sh.Shard] = sh
		completed[sh.Shard] = true
		n++
	}
	return n, nil
}
