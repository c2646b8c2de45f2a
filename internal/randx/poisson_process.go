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
// The first arrival is drawn immediately.
func NewPoissonProcess(src *Source, meanInterArrival time.Duration) *PoissonProcess {
	p := &PoissonProcess{src: src, mean: meanInterArrival}
	p.next = p.draw(0)
	return p
}

func (p *PoissonProcess) draw(from time.Duration) time.Duration {
	gap := p.src.Exp(p.mean.Seconds())
	return from + time.Duration(gap*float64(time.Second))
}

// Next consumes and returns the next arrival instant.
func (p *PoissonProcess) Next() time.Duration {
	t := p.next
	p.next = p.draw(t)
	return t
}

// AppendArrivalsUntil appends to dst every remaining arrival instant
// strictly before horizon, consuming them from the process.
//
//etrain:hotpath
func (p *PoissonProcess) AppendArrivalsUntil(dst []time.Duration, horizon time.Duration) []time.Duration {
	for p.next < horizon {
		dst = append(dst, p.Next())
	}
	return dst
}
