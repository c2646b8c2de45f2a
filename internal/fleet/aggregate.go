package fleet

import (
	"fmt"
	"strconv"

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

// merge adds the sketch counts of every class in ks. Each of k's
// sketches widens once, to the union of its span and theirs.
func (k *ClassSketches) merge(ks []ClassSketches) error {
	for j, dst := range k.all() {
		srcs := make([]*stats.Sketch, 0, 8)
		for c := range ks {
			srcs = append(srcs, ks[c].all()[j])
		}
		if err := dst.Merge(srcs...); err != nil {
			return err
		}
	}
	return nil
}

// all returns k's sketches in field order, the order of sketchNames.
func (k *ClassSketches) all() [3]*stats.Sketch {
	return [...]*stats.Sketch{k.SavedSketch, k.SavingSketch, k.DelaySketch}
}

// sketchNames are the JSON names of ClassSketches' fields.
var sketchNames = [...]string{"saved_sketch", "saving_sketch", "delay_sketch"}

// all returns m's moments in field order, the order of momentNames.
func (m *ClassMoments) all() [6]*stats.Moments {
	return [...]*stats.Moments{&m.WithoutJ, &m.WithJ, &m.SavedJ, &m.Saving, &m.DelayS, &m.Violation}
}

// momentNames are the JSON names of ClassMoments' moments.
var momentNames = [...]string{"without_j", "with_j", "saved_j", "saving", "delay_s", "violation"}

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
	for j, mm := range m.all() {
		if mm.N() != int64(m.Devices) {
			return fmt.Errorf("%s counts %d samples, the class %d devices", momentNames[j], mm.N(), m.Devices)
		}
	}
	return nil
}

// checkCounts reports an error unless each of k's sketches is present and
// counts n samples.
func (k *ClassSketches) checkCounts(n int) error {
	for j, s := range k.all() {
		if s == nil {
			return fmt.Errorf("%s is missing", sketchNames[j])
		}
		if s.Count() != uint64(n) {
			return fmt.Errorf("%s counts %d samples, want %d devices", sketchNames[j], s.Count(), n)
		}
	}
	return nil
}

// appendJSON appends m's JSON, as encoding/json writes it, to b.
func (m *ClassMoments) appendJSON(b []byte) (_ []byte, err error) {
	b = strconv.AppendInt(append(b, `{"devices":`...), int64(m.Devices), 10)
	for j, mm := range m.all() {
		if b, err = mm.AppendJSON(appendKey(b, ',', momentNames[j])); err != nil {
			return b, fmt.Errorf("%s: %w", momentNames[j], err)
		}
	}
	return append(b, '}'), nil
}

// appendJSON appends k's JSON, as encoding/json writes it, to b.
func (k *ClassSketches) appendJSON(b []byte) []byte {
	sep := byte('{')
	for j, s := range k.all() {
		b, sep = s.AppendJSON(appendKey(b, sep, sketchNames[j])), ','
	}
	return append(b, '}')
}

// appendKey appends sep and name as a JSON object key.
func appendKey(b []byte, sep byte, name string) []byte {
	b = append(b, sep, '"')
	b = append(b, name...)
	return append(b, '"', ':')
}
