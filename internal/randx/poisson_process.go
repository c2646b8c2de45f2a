package randx

import "time"

// PoissonProcess generates arrival instants of a homogeneous Poisson process
// over virtual time.
type PoissonProcess struct {
	src  *Source
	mean time.Duration
	next time.Duration
}

// NewPoissonProcess returns a process with the given mean inter-arrival time.
// The first arrival is drawn immediately so Peek is valid from the start.
func NewPoissonProcess(src *Source, meanInterArrival time.Duration) *PoissonProcess {
	p := &PoissonProcess{src: src, mean: meanInterArrival}
	p.next = p.draw(0)
	return p
}

func (p *PoissonProcess) draw(from time.Duration) time.Duration {
	gap := p.src.Exp(p.mean.Seconds())
	return from + time.Duration(gap*float64(time.Second))
}

// Peek returns the time of the next arrival without consuming it.
func (p *PoissonProcess) Peek() time.Duration { return p.next }

// Next consumes and returns the next arrival instant.
func (p *PoissonProcess) Next() time.Duration {
	t := p.next
	p.next = p.draw(t)
	return t
}

// ArrivalsUntil returns every remaining arrival instant strictly before
// horizon, consuming them from the process.
func (p *PoissonProcess) ArrivalsUntil(horizon time.Duration) []time.Duration {
	return p.AppendArrivalsUntil(nil, horizon)
}

// AppendArrivalsUntil appends to dst the instants ArrivalsUntil returns.
//
//etrain:hotpath
func (p *PoissonProcess) AppendArrivalsUntil(dst []time.Duration, horizon time.Duration) []time.Duration {
	for p.next < horizon {
		dst = append(dst, p.Next())
	}
	return dst
}
