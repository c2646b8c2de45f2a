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
// worker-count-independent because the shard layout and the moments'
// merge order are fixed (devices in index order, shards in shard order),
// not because grouping is invisible.
type ClassAggregate struct {
	ClassMoments
	ClassSketches
}

// ClassMoments is the part of a class's summary whose bits depend on the
// fold order: its device count and six moments.
type ClassMoments struct {
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
}

// ClassSketches are a class's quantile sketches over the per-device saved
// energy, fractional saving and delay. Sketch merges are exact in any
// grouping, so they need no fold order.
type ClassSketches struct {
	SavedSketch  *stats.Sketch `json:"saved_sketch"`
	SavingSketch *stats.Sketch `json:"saving_sketch"`
	DelaySketch  *stats.Sketch `json:"delay_sketch"`
}

// NewClassAggregate returns an empty aggregate with sketches at the given
// relative accuracy.
func NewClassAggregate(alpha float64) (ClassAggregate, error) {
	k, err := newClassSketches(alpha)
	return ClassAggregate{ClassSketches: k}, err
}

// newClassSketches returns three empty sketches at the given relative
// accuracy.
func newClassSketches(alpha float64) (ClassSketches, error) {
	var k ClassSketches
	var err error
	if k.SavedSketch, err = stats.NewSketch(alpha); err != nil {
		return k, err
	}
	if k.SavingSketch, err = stats.NewSketch(alpha); err != nil {
		return k, err
	}
	k.DelaySketch, err = stats.NewSketch(alpha)
	return k, err
}

// Add folds one device outcome in; its ClassIndex is not read.
func (a *ClassAggregate) Add(o DeviceOutcome) {
	saved, saving := a.ClassMoments.add(o)
	a.ClassSketches.add(saved, saving, o.DelayS)
}

// add folds one device outcome into the moments and returns the device's
// saved energy and fractional saving, the values its sketches count.
func (m *ClassMoments) add(o DeviceOutcome) (saved, saving float64) {
	saved = o.WithoutJ - o.WithJ
	if o.WithoutJ > 0 {
		saving = saved / o.WithoutJ
	}
	m.Devices++
	m.WithoutJ.Add(o.WithoutJ)
	m.WithJ.Add(o.WithJ)
	m.SavedJ.Add(saved)
	m.Saving.Add(saving)
	m.DelayS.Add(o.DelayS)
	m.Violation.Add(o.Violation)
	return saved, saving
}

// add counts one device's values.
func (k *ClassSketches) add(saved, saving, delay float64) {
	k.SavedSketch.Add(saved)
	k.SavingSketch.Add(saving)
	k.DelaySketch.Add(delay)
}

// merge folds another class's moments in.
func (m *ClassMoments) merge(o *ClassMoments) {
	m.Devices += o.Devices
	m.WithoutJ.Merge(o.WithoutJ)
	m.WithJ.Merge(o.WithJ)
	m.SavedJ.Merge(o.SavedJ)
	m.Saving.Merge(o.Saving)
	m.DelayS.Merge(o.DelayS)
	m.Violation.Merge(o.Violation)
}

// merge adds another class's sketch counts.
func (k *ClassSketches) merge(o *ClassSketches) error {
	if err := k.SavedSketch.Merge(o.SavedSketch); err != nil {
		return err
	}
	if err := k.SavingSketch.Merge(o.SavingSketch); err != nil {
		return err
	}
	return k.DelaySketch.Merge(o.DelaySketch)
}

// reset empties the sketches, keeping their spans.
func (k *ClassSketches) reset() {
	k.SavedSketch.Reset()
	k.SavingSketch.Reset()
	k.DelaySketch.Reset()
}

// checkCounts reports an error unless m's six moments each count
// m.Devices samples.
func (m *ClassMoments) checkCounts() error {
	if m.Devices < 0 {
		return fmt.Errorf("negative device count %d", m.Devices)
	}
	moments := [...]struct {
		name string
		m    *stats.Moments
	}{
		{"without_j", &m.WithoutJ}, {"with_j", &m.WithJ}, {"saved_j", &m.SavedJ},
		{"saving", &m.Saving}, {"delay_s", &m.DelayS}, {"violation", &m.Violation},
	}
	for _, mm := range moments {
		if mm.m.N() != int64(m.Devices) {
			return fmt.Errorf("%s counts %d samples, the class %d devices", mm.name, mm.m.N(), m.Devices)
		}
	}
	return nil
}

// checkCounts reports an error unless each of k's sketches is present and
// counts n samples.
func (k *ClassSketches) checkCounts(n int) error {
	sketches := [...]struct {
		name string
		s    *stats.Sketch
	}{
		{"saved_sketch", k.SavedSketch}, {"saving_sketch", k.SavingSketch}, {"delay_sketch", k.DelaySketch},
	}
	for _, sk := range sketches {
		if sk.s == nil {
			return fmt.Errorf("%s is missing", sk.name)
		}
		if sk.s.Count() != uint64(n) {
			return fmt.Errorf("%s counts %d samples, want %d devices", sk.name, sk.s.Count(), n)
		}
	}
	return nil
}
