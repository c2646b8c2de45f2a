package fleet

import "fmt"

// fold is a run's report as it grows: the folded prefix, the shards
// [0, folded), whose class moments have merged into prefix and total
// strictly in shard order, as the report needs them, and whose devices'
// values are counted in the run's class sketches. Its memory depends on
// the mix and the sketches' spans, not on the device count. Finished
// shards beyond the prefix wait in the run's outcome buffers, not here.
//
// A fold belongs to the hook that finishes shards, which ForEachStatus
// serializes. A run keeps its fold when it goes back on the free list, so
// a run counts its samples in spans an earlier run grew.
type fold struct {
	alpha  float64
	folded int
	prefix []ClassMoments
	total  ClassMoments
	// sketches holds one entry per mix entry.
	sketches []ClassSketches
	// shard is the scratch each folding shard's class moments fill before
	// they merge into prefix and total.
	shard []ClassMoments
}

// reset empties f for cfg's mix and sketch accuracy. Sketches of the same
// accuracy keep their spans.
func (f *fold) reset(cfg *Config) error {
	classes := len(cfg.Mix)
	f.folded, f.total = 0, ClassMoments{}
	if f.alpha != cfg.SketchAlpha || len(f.sketches) != classes {
		f.alpha = 0
		f.prefix, f.shard = make([]ClassMoments, classes), make([]ClassMoments, classes)
		f.sketches = make([]ClassSketches, classes)
		for c := range f.sketches {
			var err error
			if f.sketches[c], err = newClassSketches(cfg.SketchAlpha); err != nil {
				return err
			}
		}
		f.alpha = cfg.SketchAlpha
	}
	clear(f.prefix)
	for c := range f.sketches {
		f.sketches[c].reset()
	}
	return nil
}

// addShard folds the outcomes of shard folded: its devices' moments, in
// index order, into the shard scratch, which merges into the prefix's
// class and total moments, and their values into the sketches.
func (f *fold) addShard(outs []DeviceOutcome) {
	clear(f.shard)
	for _, o := range outs {
		saved, saving := f.shard[o.ClassIndex].add(o)
		f.sketches[o.ClassIndex].add(saved, saving, o.DelayS)
	}
	for c := range f.shard {
		f.prefix[c].merge(&f.shard[c])
		f.total.merge(&f.shard[c])
	}
	f.folded++
}

// report returns the run's report once every shard has folded. Each of its
// sketches is allocated once, spanning exactly its occupied buckets: a
// class row's copies the class sketch, and the total row's merges every
// class's at once. So a kept report holds no headroom.
func (f *fold) report(cfg *Config, hash string) (*Report, error) {
	if f.folded != cfg.shardCount() {
		return nil, fmt.Errorf("fleet: %d of %d shards folded", f.folded, cfg.shardCount())
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
	exact := func(ks []ClassSketches) (ClassSketches, error) {
		k, err := newClassSketches(cfg.SketchAlpha)
		if err != nil {
			return k, err
		}
		return k, k.merge(ks)
	}
	var err error
	for c, share := range cfg.Mix {
		row := &r.Classes[c]
		row.Label, row.Agg.ClassMoments = share.Class.String(), f.prefix[c]
		if row.Agg.ClassSketches, err = exact(f.sketches[c : c+1]); err != nil {
			return nil, err
		}
	}
	if r.Total.ClassSketches, err = exact(f.sketches); err != nil {
		return nil, err
	}
	return r, nil
}
