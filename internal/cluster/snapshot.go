package cluster

import (
	"encoding/json"
	"fmt"
	"os"

	"etrain/internal/tracefile"
)

// ShardSnapshot is one registered shard as the controller snapshot
// records it: identity, advertised session address, and the drain flag.
// Connection state is deliberately absent — a restarted controller has
// no live conns, and the member is restored as a phantom the real shard
// re-attaches to.
type ShardSnapshot struct {
	ID       uint64 `json:"id"`
	Addr     string `json:"addr"`
	Draining bool   `json:"draining,omitempty"`
}

// ControllerSnapshot is the controller's durable state: everything a
// restart needs to publish the same route table at the same epoch
// without a rebuild storm. It is the schema of the -snapshot JSON file.
type ControllerSnapshot struct {
	Epoch    uint64          `json:"epoch"`
	RingSeed int64           `json:"ring_seed"`
	Vnodes   int             `json:"vnodes"`
	Shards   []ShardSnapshot `json:"shards"`
	Deaths   uint64          `json:"deaths"`
	Drains   uint64          `json:"drains"`
}

// Snapshot captures the controller's durable state under one lock:
// epoch, ring parameters, removal counters, and the member list in
// ascending shard-ID order (so successive snapshot files diff cleanly).
func (c *Controller) Snapshot() ControllerSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := ControllerSnapshot{
		Epoch:    c.epoch,
		RingSeed: c.cfg.RingSeed,
		Vnodes:   c.cfg.Vnodes,
		Shards:   make([]ShardSnapshot, 0, len(c.shards)),
		Deaths:   c.deaths,
		Drains:   c.drains,
	}
	for _, sh := range c.shards {
		snap.Shards = append(snap.Shards, ShardSnapshot{ID: sh.id, Addr: sh.addr, Draining: sh.draining})
	}
	sortShardSnapshots(snap.Shards)
	return snap
}

func sortShardSnapshots(s []ShardSnapshot) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].ID < s[j-1].ID; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// WriteSnapshot atomically persists the controller's current snapshot
// to path (tracefile.WriteJSONAtomic): a crash mid-write leaves either
// the old file or the new one, never a torn JSON.
func (c *Controller) WriteSnapshot(path string) error {
	if err := tracefile.WriteJSONAtomic(path, c.Snapshot()); err != nil {
		return fmt.Errorf("cluster: snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot reads a snapshot file written by WriteSnapshot. A
// missing file is an error — the caller decides whether boot-without-
// state is acceptable (etraind treats it as a cold start).
func LoadSnapshot(path string) (*ControllerSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: snapshot read: %w", err)
	}
	var snap ControllerSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("cluster: snapshot parse %s: %w", path, err)
	}
	if snap.Vnodes <= 0 {
		return nil, fmt.Errorf("cluster: snapshot %s: vnodes %d out of range", path, snap.Vnodes)
	}
	seen := make(map[uint64]bool, len(snap.Shards))
	for _, sh := range snap.Shards {
		if sh.ID == 0 {
			return nil, fmt.Errorf("cluster: snapshot %s: shard id 0 is reserved", path)
		}
		if seen[sh.ID] {
			return nil, fmt.Errorf("cluster: snapshot %s: duplicate shard id %d", path, sh.ID)
		}
		seen[sh.ID] = true
	}
	return &snap, nil
}
