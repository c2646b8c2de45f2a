package fleet

import (
	"fmt"

	"etrain/internal/stats"
)

// ClassAggregate is the streaming summary of every simulated device of one
// activeness class: constant-size mergeable moments plus quantile sketches,
// never the per-device samples. The sketches' bits depend only on the
// device multiset, but the moments' do not: the same devices folded or
// merged in another grouping can differ in the last bits. Reports are
// worker-count-independent because the shard layout and the merge order
// are fixed (devices in index order, shards in shard order), not because
// grouping is invisible.
type ClassAggregate struct {
	// Devices counts the devices folded in.
	Devices int `json:"devices"`
	// WithoutJ and WithJ summarize per-device total energy in joules
	// without and with eTrain; SavedJ their difference.
	WithoutJ stats.Moments `json:"without_j"`
	WithJ    stats.Moments `json:"with_j"`
	SavedJ   stats.Moments `json:"saved_j"`
	// Saving summarizes the per-device fractional saving 1 - with/without.
	Saving stats.Moments `json:"saving"`
	// DelayS and Violation summarize the with-eTrain mean delay (seconds)
	// and deadline-violation ratio.
	DelayS    stats.Moments `json:"delay_s"`
	Violation stats.Moments `json:"violation"`

	// Quantile sketches over the same per-device values.
	SavedSketch  *stats.Sketch `json:"saved_sketch"`
	SavingSketch *stats.Sketch `json:"saving_sketch"`
	DelaySketch  *stats.Sketch `json:"delay_sketch"`
}

// NewClassAggregate returns an empty aggregate with sketches at the given
// relative accuracy.
func NewClassAggregate(alpha float64) (ClassAggregate, error) {
	var a ClassAggregate
	var err error
	if a.SavedSketch, err = stats.NewSketch(alpha); err != nil {
		return a, err
	}
	if a.SavingSketch, err = stats.NewSketch(alpha); err != nil {
		return a, err
	}
	if a.DelaySketch, err = stats.NewSketch(alpha); err != nil {
		return a, err
	}
	return a, nil
}

// Add folds one device outcome in; its ClassIndex is not read.
func (a *ClassAggregate) Add(o DeviceOutcome) {
	saved := o.WithoutJ - o.WithJ
	saving := 0.0
	if o.WithoutJ > 0 {
		saving = saved / o.WithoutJ
	}
	a.Devices++
	a.WithoutJ.Add(o.WithoutJ)
	a.WithJ.Add(o.WithJ)
	a.SavedJ.Add(saved)
	a.Saving.Add(saving)
	a.DelayS.Add(o.DelayS)
	a.Violation.Add(o.Violation)
	a.SavedSketch.Add(saved)
	a.SavingSketch.Add(saving)
	a.DelaySketch.Add(o.DelayS)
}

// merge folds another aggregate of the same class in.
func (a *ClassAggregate) merge(o *ClassAggregate) error {
	a.Devices += o.Devices
	a.WithoutJ.Merge(o.WithoutJ)
	a.WithJ.Merge(o.WithJ)
	a.SavedJ.Merge(o.SavedJ)
	a.Saving.Merge(o.Saving)
	a.DelayS.Merge(o.DelayS)
	a.Violation.Merge(o.Violation)
	if err := a.SavedSketch.Merge(o.SavedSketch); err != nil {
		return err
	}
	if err := a.SavingSketch.Merge(o.SavingSketch); err != nil {
		return err
	}
	return a.DelaySketch.Merge(o.DelaySketch)
}

// ShardAggregate is one shard's complete summary: a ClassAggregate per mix
// entry, in mix order. It is the unit of checkpointing — a completed
// shard's aggregate fully replaces re-simulating its devices.
type ShardAggregate struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Devices counts the shard's devices.
	Devices int `json:"devices"`
	// Classes holds one aggregate per mix entry, in mix order.
	Classes []ClassAggregate `json:"classes"`
}

// newShardAggregate returns an empty aggregate for shard s over a mix of
// the given size.
func newShardAggregate(s, classes int, alpha float64) (*ShardAggregate, error) {
	agg := &ShardAggregate{Shard: s, Classes: make([]ClassAggregate, classes)}
	for c := range agg.Classes {
		var err error
		if agg.Classes[c], err = NewClassAggregate(alpha); err != nil {
			return nil, err
		}
	}
	return agg, nil
}

// add folds one device outcome into its class.
func (s *ShardAggregate) add(o DeviceOutcome) {
	s.Devices++
	s.Classes[o.ClassIndex].Add(o)
}

// validateShape checks a deserialized aggregate against the run's layout
// and its counts against each other: the classes' devices sum to the
// shard's, and every moment and sketch of a class counts that class's
// devices. A checkpoint is input from outside the program, and a shard
// whose counts disagree would resume to a report about another fleet.
func (s *ShardAggregate) validateShape(cfg *Config) error {
	if s.Shard < 0 || s.Shard >= cfg.shardCount() {
		return fmt.Errorf("fleet: shard index %d outside [0, %d)", s.Shard, cfg.shardCount())
	}
	if len(s.Classes) != len(cfg.Mix) {
		return fmt.Errorf("fleet: shard %d has %d classes, config has %d", s.Shard, len(s.Classes), len(cfg.Mix))
	}
	lo, hi := cfg.shardRange(s.Shard)
	if s.Devices != hi-lo {
		return fmt.Errorf("fleet: shard %d has %d devices, config expects %d", s.Shard, s.Devices, hi-lo)
	}
	sum := 0
	for c := range s.Classes {
		if err := s.Classes[c].checkCounts(); err != nil {
			return fmt.Errorf("fleet: shard %d class %d: %w", s.Shard, c, err)
		}
		sum += s.Classes[c].Devices
	}
	if sum != s.Devices {
		return fmt.Errorf("fleet: shard %d classes hold %d devices, the shard %d", s.Shard, sum, s.Devices)
	}
	return nil
}

// checkCounts reports an error unless a's six moments and three sketches
// each count a.Devices samples.
func (a *ClassAggregate) checkCounts() error {
	if a.Devices < 0 {
		return fmt.Errorf("negative device count %d", a.Devices)
	}
	moments := [...]struct {
		name string
		m    *stats.Moments
	}{
		{"without_j", &a.WithoutJ}, {"with_j", &a.WithJ}, {"saved_j", &a.SavedJ},
		{"saving", &a.Saving}, {"delay_s", &a.DelayS}, {"violation", &a.Violation},
	}
	for _, m := range moments {
		if m.m.N() != int64(a.Devices) {
			return fmt.Errorf("%s counts %d samples, the class %d devices", m.name, m.m.N(), a.Devices)
		}
	}
	sketches := [...]struct {
		name string
		s    *stats.Sketch
	}{
		{"saved_sketch", a.SavedSketch}, {"saving_sketch", a.SavingSketch}, {"delay_sketch", a.DelaySketch},
	}
	for _, sk := range sketches {
		if sk.s == nil {
			return fmt.Errorf("%s is missing", sk.name)
		}
		if sk.s.Count() != uint64(a.Devices) {
			return fmt.Errorf("%s counts %d samples, the class %d devices", sk.name, sk.s.Count(), a.Devices)
		}
	}
	return nil
}
