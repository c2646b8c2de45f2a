package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"etrain/internal/wire"
)

// ShardStatus is one shard's registry entry as the ops surface reports
// it.
type ShardStatus struct {
	ID       uint64 `json:"id"`
	Addr     string `json:"addr"`
	Draining bool   `json:"draining"`
	BeatSeq  uint64 `json:"beat_seq"`
	Beats    uint64 `json:"beats"`
	// BeatAgeMS is how stale the last beat is, in milliseconds; -1 when
	// the controller has no Clock (staleness undefined) or no beat yet.
	BeatAgeMS int64 `json:"beat_age_ms"`
	// Stats is the shard's latest beat, if one arrived.
	Stats *wire.ShardStats `json:"stats,omitempty"`
}

// Status is the controller's full observable state.
type Status struct {
	Epoch    uint64        `json:"epoch"`
	RingSeed int64         `json:"ring_seed"`
	Vnodes   int           `json:"vnodes"`
	Shards   []ShardStatus `json:"shards"`
	Watchers int           `json:"watchers"`
	Deaths   uint64        `json:"deaths"`
	Drains   uint64        `json:"drains"`
}

// Status snapshots the registry under one lock: shard list (ascending
// ID), route epoch and removal counters all describe the same instant.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Epoch:    c.epoch,
		RingSeed: c.cfg.RingSeed,
		Vnodes:   c.cfg.Vnodes,
		Shards:   make([]ShardStatus, 0, len(c.shards)),
		Watchers: len(c.watchers),
		Deaths:   c.deaths,
		Drains:   c.drains,
	}
	for _, sh := range c.shards {
		ss := ShardStatus{
			ID:        sh.id,
			Addr:      sh.addr,
			Draining:  sh.draining,
			BeatSeq:   sh.stats.Seq,
			Beats:     sh.beats,
			BeatAgeMS: -1,
		}
		if sh.hasBeat && c.cfg.Clock != nil {
			ss.BeatAgeMS = c.cfg.Clock().Sub(sh.lastBeat).Milliseconds()
		}
		if sh.beats > 0 {
			stats := sh.stats
			ss.Stats = &stats
		}
		st.Shards = append(st.Shards, ss)
	}
	sort.Slice(st.Shards, func(i, j int) bool { return st.Shards[i].ID < st.Shards[j].ID })
	return st
}

// Totals sums the latest counter snapshot of every registered shard
// (ShardID and Seq 0 mark the aggregate). A killed shard's counters
// leave the sum when its registration drops — Totals is "what the live
// fleet reports", not a historical ledger.
func (c *Controller) Totals() wire.ShardStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t wire.ShardStats
	for _, sh := range c.shards {
		s := sh.stats
		t.Accepted += s.Accepted
		t.Rejected += s.Rejected
		t.Active += s.Active
		t.Completed += s.Completed
		t.Errored += s.Errored
		t.Panics += s.Panics
		t.Parked += s.Parked
		t.Resumed += s.Resumed
		t.ResumeMisses += s.ResumeMisses
		t.Discarded += s.Discarded
		t.Detached += s.Detached
		t.FramesIn += s.FramesIn
		t.FramesOut += s.FramesOut
		t.Decisions += s.Decisions
		t.Refused += s.Refused
		t.Shed += s.Shed
		t.BusySent += s.BusySent
	}
	return t
}

// OpsHandler serves the controller's operational surface:
//
//	GET  /metrics   text counters, fixed order (route epoch, per-shard health)
//	GET  /status    Status as JSON
//	GET  /shards    the shard list as JSON
//	GET  /sessions  fleet-summed session counters as JSON
//	GET  /table     the current RouteTable as JSON
//	POST /drain?shard=N  remove shard N from the ring (lame duck)
func (c *Controller) OpsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeMetrics(w, c.Status())
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Status())
	})
	mux.HandleFunc("/shards", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Status().Shards)
	})
	mux.HandleFunc("/sessions", func(w http.ResponseWriter, r *http.Request) {
		st := c.Status()
		writeJSON(w, sessionsReport{Shards: len(st.Shards), Totals: c.Totals()})
	})
	mux.HandleFunc("/table", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Table())
	})
	mux.HandleFunc("/drain", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "drain requires POST", http.StatusMethodNotAllowed)
			return
		}
		id, err := strconv.ParseUint(r.URL.Query().Get("shard"), 10, 64)
		if err != nil {
			http.Error(w, "drain requires ?shard=<id>", http.StatusBadRequest)
			return
		}
		if err := c.Drain(id); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]any{"draining": id})
	})
	return mux
}

// sessionsReport is the /sessions payload: how many shards contributed
// and their summed counters.
type sessionsReport struct {
	Shards int             `json:"shards"`
	Totals wire.ShardStats `json:"totals"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The header is gone; nothing useful left to send.
		return
	}
}

// writeMetrics renders the fixed-order text exposition. Cluster-level
// lines first, then per-shard lines grouped by metric with shards in
// ascending ID order, so successive scrapes diff cleanly.
func writeMetrics(w http.ResponseWriter, st Status) {
	live, draining := 0, 0
	for _, sh := range st.Shards {
		if sh.Draining {
			draining++
		} else {
			live++
		}
	}
	fmt.Fprintf(w, "etrain_cluster_route_epoch %d\n", st.Epoch)
	fmt.Fprintf(w, "etrain_cluster_shards %d\n", live)
	fmt.Fprintf(w, "etrain_cluster_shards_draining %d\n", draining)
	fmt.Fprintf(w, "etrain_cluster_watchers %d\n", st.Watchers)
	fmt.Fprintf(w, "etrain_cluster_shard_deaths %d\n", st.Deaths)
	fmt.Fprintf(w, "etrain_cluster_shard_drains %d\n", st.Drains)

	shardGauge(w, st, "etrain_shard_up", func(sh ShardStatus) uint64 { return 1 })
	shardGauge(w, st, "etrain_shard_beat_seq", func(sh ShardStatus) uint64 { return sh.BeatSeq })
	counter := func(name string, pick func(s wire.ShardStats) uint64) {
		shardGauge(w, st, name, func(sh ShardStatus) uint64 {
			if sh.Stats == nil {
				return 0
			}
			return pick(*sh.Stats)
		})
	}
	counter("etrain_shard_sessions_accepted", func(s wire.ShardStats) uint64 { return s.Accepted })
	counter("etrain_shard_sessions_rejected", func(s wire.ShardStats) uint64 { return s.Rejected })
	counter("etrain_shard_sessions_active", func(s wire.ShardStats) uint64 { return s.Active })
	counter("etrain_shard_sessions_completed", func(s wire.ShardStats) uint64 { return s.Completed })
	counter("etrain_shard_sessions_errored", func(s wire.ShardStats) uint64 { return s.Errored })
	counter("etrain_shard_sessions_parked", func(s wire.ShardStats) uint64 { return s.Parked })
	counter("etrain_shard_sessions_resumed", func(s wire.ShardStats) uint64 { return s.Resumed })
	counter("etrain_shard_resume_misses", func(s wire.ShardStats) uint64 { return s.ResumeMisses })
	counter("etrain_shard_frames_in", func(s wire.ShardStats) uint64 { return s.FramesIn })
	counter("etrain_shard_frames_out", func(s wire.ShardStats) uint64 { return s.FramesOut })
	counter("etrain_shard_decisions", func(s wire.ShardStats) uint64 { return s.Decisions })
	counter("etrain_shard_hellos_refused", func(s wire.ShardStats) uint64 { return s.Refused })
	counter("etrain_shard_cargo_shed", func(s wire.ShardStats) uint64 { return s.Shed })
	counter("etrain_shard_busy_sent", func(s wire.ShardStats) uint64 { return s.BusySent })
}

// shardGauge writes one metric line per shard, in the status's ascending
// shard-ID order.
func shardGauge(w http.ResponseWriter, st Status, name string, pick func(ShardStatus) uint64) {
	for _, sh := range st.Shards {
		fmt.Fprintf(w, "%s{shard=%q} %d\n", name, strconv.FormatUint(sh.ID, 10), pick(sh))
	}
}
