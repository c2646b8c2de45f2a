package cluster

import (
	"etrain/internal/server"
	"etrain/internal/wire"
)

// CountersToShardStats maps a session server's counter snapshot onto the
// ShardStats beat a shard agent reports, every counter from the one
// snapshot. Every etraind shard and the in-process test rig use this one
// mapping, so the controller's merged totals mean the same thing
// regardless of who produced them.
func CountersToShardStats(id uint64, c server.Counters) wire.ShardStats {
	return wire.ShardStats{
		ShardID:      id,
		Accepted:     c.Accepted,
		Rejected:     c.Rejected,
		Active:       c.Active,
		Completed:    c.Completed,
		Errored:      c.Errored,
		Panics:       c.Panics,
		Parked:       c.Parked,
		Resumed:      c.Resumed,
		ResumeMisses: c.ResumeMisses,
		Discarded:    c.Discarded,
		Detached:     c.Detached,
		FramesIn:     c.FramesIn,
		FramesOut:    c.FramesOut,
		Decisions:    c.Decisions,
		Refused:      c.Refused,
		Shed:         c.Shed,
		BusySent:     c.BusySent,
	}
}
