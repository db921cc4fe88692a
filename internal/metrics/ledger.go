package metrics

import (
	"math"
	"math/bits"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/topology"
)

// StepIntegrator integrates a piecewise-constant signal over virtual time:
// Observe(t, v) records that the signal took value v from t onward. It is
// the availability accountant: feed it demand-satisfaction after every
// state change and read back the time average.
type StepIntegrator struct {
	first   sim.Time
	last    sim.Time
	current float64
	area    float64
	started bool
}

// Observe records a new value taking effect at t. Observations must be
// time-ordered.
func (s *StepIntegrator) Observe(t sim.Time, v float64) {
	if s.started {
		s.area += s.current * float64(t-s.last)
	} else {
		s.started = true
		s.first = t
	}
	s.last = t
	s.current = v
}

// Average returns the time-weighted mean of the signal over [first
// observation, t]. If no time has elapsed it returns the current value.
func (s *StepIntegrator) Average(t sim.Time) float64 {
	if !s.started || t <= s.first {
		return s.current
	}
	total := s.area + s.current*float64(t-s.last)
	return total / float64(t-s.first)
}

// HealthLedger accumulates per-link time in each observable health state.
// Subscribe it to the fault injector; call Finish before reading.
type HealthLedger struct {
	eng   *sim.Engine
	state []faults.Health
	since []sim.Time
	acc   [][3]sim.Time // per link, per health state
}

// NewHealthLedger creates a ledger for the network's links, all assumed
// healthy at the current instant.
func NewHealthLedger(eng *sim.Engine, net *topology.Network) *HealthLedger {
	hl := &HealthLedger{
		eng:   eng,
		state: make([]faults.Health, len(net.Links)),
		since: make([]sim.Time, len(net.Links)),
		acc:   make([][3]sim.Time, len(net.Links)),
	}
	now := eng.Now()
	for i := range hl.since {
		hl.since[i] = now
	}
	return hl
}

// LinkStateChanged implements faults.Listener.
func (hl *HealthLedger) LinkStateChanged(l *topology.Link, from, to faults.Health, at sim.Time) {
	id := l.ID
	hl.acc[id][hl.state[id]] += at - hl.since[id]
	hl.state[id] = to
	hl.since[id] = at
}

// LinkFlapped implements faults.Listener (flaps do not change time
// accounting).
func (hl *HealthLedger) LinkFlapped(*topology.Link, sim.Time, float64, sim.Time) {}

// Durations returns the time the link has spent in each state up to now.
func (hl *HealthLedger) Durations(id topology.LinkID) (healthy, flapping, down sim.Time) {
	acc := hl.acc[id]
	acc[hl.state[id]] += hl.eng.Now() - hl.since[id]
	return acc[faults.Healthy], acc[faults.Flapping], acc[faults.Down]
}

// linkTime is a fleet-wide sum of link durations in nanoseconds, exact
// past int64: a large hall on a long run passes 2^63 ns, about 292
// link-years.
type linkTime struct{ hi, lo uint64 }

func (t *linkTime) add(d sim.Time) {
	var carry uint64
	t.lo, carry = bits.Add64(t.lo, uint64(d), 0)
	t.hi += carry
}

func (t linkTime) plus(u linkTime) linkTime {
	lo, carry := bits.Add64(t.lo, u.lo, 0)
	return linkTime{hi: t.hi + u.hi + carry, lo: lo}
}

// fits reports whether the sum is an int64, where it is read exactly as
// one, bit for bit as the int64 sum it replaced.
func (t linkTime) fits() bool { return t.hi == 0 && t.lo <= math.MaxInt64 }

func (t linkTime) float() float64 {
	if t.fits() {
		return float64(t.lo)
	}
	return float64(t.hi)*(1<<64) + float64(t.lo)
}

func (t linkTime) hours() float64 {
	if t.fits() {
		return sim.Time(t.lo).Duration().Hours()
	}
	return t.float() / float64(sim.Hour)
}

// fleet sums durations across all links.
func (hl *HealthLedger) fleet() (healthy, flapping, down linkTime) {
	for id := range hl.acc {
		h, f, d := hl.Durations(topology.LinkID(id))
		healthy.add(h)
		flapping.add(f)
		down.add(d)
	}
	return healthy, flapping, down
}

// FleetAvailability returns the fraction of link-time spent fully healthy,
// and the "nines" convenience formats.
func (hl *HealthLedger) FleetAvailability() float64 {
	h, f, d := hl.fleet()
	total := h.plus(f).plus(d)
	if total == (linkTime{}) {
		return 1
	}
	return h.float() / total.float()
}

// DownLinkHours returns the fleet-wide failed-link-hours, the paper's cost
// unit for the AI-cluster argument.
func (hl *HealthLedger) DownLinkHours() float64 {
	_, _, d := hl.fleet()
	return d.hours()
}

// DegradedLinkHours returns fleet-wide flapping-link-hours.
func (hl *HealthLedger) DegradedLinkHours() float64 {
	_, f, _ := hl.fleet()
	return f.hours()
}
