package fleet

import (
	"fmt"
	"sync"
)

// fold is a run's report as it grows, in memory that depends on the mix
// and the sketches' spans but not on the device or shard count:
//
//   - the folded prefix: the shards [0, folded), whose class moments have
//     merged into prefix and total strictly in shard order, as the report
//     needs them;
//   - the pending shards: finished shards beyond the prefix, each keeping
//     only its class moments until every shard before it has finished;
//   - the run's class sketches, which count the samples of every finished
//     shard, folded or pending, since sketch merges are exact in any
//     grouping.
//
// A fold belongs to the hook that finishes shards, which ForEachStatus
// serializes. Folds are pooled across runs, so a run counts its samples in
// spans an earlier run grew and reuses its pending records.
type fold struct {
	alpha  float64
	folded int
	prefix []ClassMoments
	total  ClassMoments
	// pending holds the finished shards beyond the prefix by index.
	pending map[int]*shardMoments
	// sketches holds one entry per mix entry.
	sketches []ClassSketches
	// free holds records already merged into the prefix, for reuse.
	free []*shardMoments
}

// foldPool holds the folds of finished runs.
var foldPool sync.Pool

// getFold returns an empty fold for cfg's mix and sketch accuracy.
func getFold(cfg *Config) (*fold, error) {
	classes := len(cfg.Mix)
	f, _ := foldPool.Get().(*fold)
	if f == nil || f.alpha != cfg.SketchAlpha || len(f.sketches) != classes {
		f = &fold{alpha: cfg.SketchAlpha, pending: make(map[int]*shardMoments), sketches: make([]ClassSketches, classes)}
		var err error
		for c := range f.sketches {
			if f.sketches[c], err = newClassSketches(cfg.SketchAlpha); err != nil {
				return nil, err
			}
		}
	} else {
		for c := range f.sketches {
			f.sketches[c].reset()
		}
	}
	f.folded = 0
	f.prefix = append(f.prefix[:0], make([]ClassMoments, classes)...)
	f.total = ClassMoments{}
	return f, nil
}

// release returns f to the pool; f must not be used after. A halted run
// leaves pending shards, whose records are dropped.
func (f *fold) release() {
	clear(f.pending)
	foldPool.Put(f)
}

// addShard folds shard s's device outcomes, in device-index order: their
// moments into a record that waits until the prefix reaches s, their
// values into the run's sketches. The prefix then merges every pending
// shard it reaches.
func (f *fold) addShard(s int, outs []DeviceOutcome) {
	var sm *shardMoments
	if n := len(f.free); n > 0 {
		sm, f.free = f.free[n-1], f.free[:n-1]
	} else {
		sm = new(shardMoments)
	}
	*sm = shardMoments{Shard: s, Classes: append(sm.Classes[:0], make([]ClassMoments, len(f.sketches))...)}
	for _, o := range outs {
		sm.Devices++
		saved, saving := sm.Classes[o.ClassIndex].add(o)
		f.sketches[o.ClassIndex].add(saved, saving, o.DelayS)
	}
	f.pending[s] = sm
	f.advance()
}

// advance merges the pending shards that continue the prefix, in shard
// order, and frees their records.
func (f *fold) advance() {
	for {
		sm, ok := f.pending[f.folded]
		if !ok {
			return
		}
		for c := range sm.Classes {
			f.prefix[c].merge(&sm.Classes[c])
			f.total.merge(&sm.Classes[c])
		}
		delete(f.pending, f.folded)
		f.free = append(f.free, sm)
		f.folded++
	}
}

// finished counts the finished shards, folded or pending.
func (f *fold) finished() int { return f.folded + len(f.pending) }

// report returns the run's report once every shard has folded. Its
// sketches are copies spanning exactly their occupied buckets, so a kept
// report holds no headroom and shares nothing with the pooled fold.
func (f *fold) report(cfg *Config, hash string) (*Report, error) {
	if f.folded != cfg.shardCount() || len(f.pending) != 0 {
		return nil, fmt.Errorf("fleet: %d of %d shards folded, %d pending", f.folded, cfg.shardCount(), len(f.pending))
	}
	r := &Report{
		Devices:     cfg.Devices,
		Shards:      cfg.shardCount(),
		ShardSize:   cfg.ShardSize,
		Horizon:     cfg.Horizon,
		Theta:       cfg.Theta,
		K:           cfg.K,
		Seed:        cfg.Seed,
		SketchAlpha: cfg.SketchAlpha,
		Radio:       cfg.Radio,
		ConfigHash:  hash,
		Classes:     make([]ClassRow, len(cfg.Mix)),
		Total:       ClassAggregate{ClassMoments: f.total},
	}
	if cfg.Diurnal != nil {
		r.Diurnal = cfg.Diurnal.Name
	}
	var err error
	if r.Total.ClassSketches, err = newClassSketches(cfg.SketchAlpha); err != nil {
		return nil, err
	}
	for c, share := range cfg.Mix {
		row := &r.Classes[c]
		row.Label = share.Class.String()
		row.Agg.ClassMoments = f.prefix[c]
		if row.Agg.ClassSketches, err = copySketches(cfg.SketchAlpha, &f.sketches[c]); err != nil {
			return nil, fmt.Errorf("fleet: class %d: %w", c, err)
		}
		if err := r.Total.ClassSketches.merge(&f.sketches[c]); err != nil {
			return nil, fmt.Errorf("fleet: class %d: %w", c, err)
		}
	}
	return r, nil
}

// copySketches returns new sketches at accuracy alpha holding k's counts
// over exactly their occupied buckets.
func copySketches(alpha float64, k *ClassSketches) (ClassSketches, error) {
	c, err := newClassSketches(alpha)
	if err != nil {
		return c, err
	}
	return c, c.merge(k)
}
