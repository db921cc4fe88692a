package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"time"

	"repro/internal/maintindex"
	"repro/internal/routing"
	"repro/internal/topology"
)

// fabricSweep drains fabric links one at a time and re-evaluates a uniform
// matrix, the way maintindex scores drain tolerance. One drain sample
// (drain, evaluate, undrain) is one step; the steps cycle through each
// topology's maintindex sample set in turn.
var fabricSweep = &workload{
	name:           "fabric-sweep",
	stepsPerSecond: 130,
	checkpoint:     200,
	build: func(seed uint64, sc scale, l *layers) (system, error) {
		return buildFabric(seed, sc.smallFabrics, l)
	},
}

// fabricTopologies are the swept fabrics: two Clos designs and two
// expanders, about 130 hosts each (a quarter of the switches when small).
// The expanders' wiring comes from the run's seed.
func fabricTopologies(seed uint64, small bool) []func() (*topology.Network, error) {
	k, leaves, spines, lift, switches := 8, 32, 8, 8, 64
	if small {
		k, leaves, spines, lift, switches = 4, 8, 2, 2, 16
	}
	return []func() (*topology.Network, error){
		func() (*topology.Network, error) {
			return topology.NewFatTree(topology.DefaultFatTree(k))
		},
		func() (*topology.Network, error) {
			return topology.NewLeafSpine(topology.LeafSpineConfig{
				Leaves: leaves, Spines: spines, HostsPerLeaf: 4, Uplinks: 1, FabricGbps: 400, HostGbps: hostGbps,
			})
		},
		func() (*topology.Network, error) {
			return topology.NewXpander(topology.XpanderConfig{
				Degree: 8, Lift: lift, HostsPerSwitch: 2, FabricGbps: 400, HostGbps: hostGbps, Seed: seed,
			})
		},
		func() (*topology.Network, error) {
			return topology.NewJellyfish(topology.JellyfishConfig{
				Switches: switches, FabricDegree: 8, HostsPerSwitch: 2, FabricGbps: 400, HostGbps: hostGbps, Seed: seed,
			})
		},
	}
}

type fabricNet struct {
	net    *topology.Network
	router *routing.Router
	tm     routing.TrafficMatrix
	ws     routing.Workspace
	base   float64 // availability with nothing drained
	sample []*topology.Link
	epoch  uint64 // router cache epoch at the start of the timed span
	// sweeps holds the summed drain availability of every completed sweep.
	sweeps []float64
	cur    float64
}

type fabric struct {
	nets  []*fabricNet
	t, i  int // next drain: nets[t].sample[i]
	hash  uint64
	l     *layers
	steps int
}

func buildFabric(seed uint64, small bool, l *layers) (*fabric, error) {
	f := &fabric{l: l}
	for _, build := range fabricTopologies(seed, small) {
		start := time.Now()
		net, err := build()
		l.add(spanTopologyBuild, start)
		if err != nil {
			return nil, err
		}
		fn := &fabricNet{net: net, router: routing.NewRouter(net, nil)}
		fn.router.Workers = 1
		fn.tm = routing.UniformMatrix(net, fullInjection(net))
		start = time.Now()
		fn.base = fn.router.EvaluateInto(&fn.ws, fn.tm).Availability()
		l.add(spanColdFill, start)
		fn.sample = drainSample(net)
		f.nets = append(f.nets, fn)
	}
	return f, nil
}

// fullInjection is the load maintindex offers: every host NIC at line rate.
func fullInjection(net *topology.Network) float64 {
	var load float64
	for _, h := range net.Hosts() {
		for _, p := range h.Ports {
			if p.Link != nil {
				load += p.Link.GbpsCap
			}
		}
	}
	return load
}

// drainSample is maintindex's deterministic drain sample: every k-th
// fabric link, k chosen for its default sample count.
func drainSample(net *topology.Network) []*topology.Link {
	fabric := net.SwitchLinks()
	step := len(fabric) / maintindex.DefaultConfig().DrainSamples
	if step < 1 {
		step = 1
	}
	var out []*topology.Link
	for i := 0; i < len(fabric); i += step {
		out = append(out, fabric[i])
	}
	return out
}

func (f *fabric) begin() {
	for _, fn := range f.nets {
		fn.epoch = fn.router.Epoch()
	}
}

func (f *fabric) step() error {
	fn := f.nets[f.t]
	link := fn.sample[f.i]
	var a float64
	if f.l == nil {
		fn.router.Drain(link.ID)
		a = fn.router.EvaluateInto(&fn.ws, fn.tm).Availability()
		fn.router.Undrain(link.ID)
	} else {
		start := time.Now()
		fn.router.Drain(link.ID)
		f.l.add(spanDrain, start)
		evalStart := time.Now()
		a = fn.router.EvaluateInto(&fn.ws, fn.tm).Availability()
		f.l.add(spanEvaluate, evalStart)
		undrainStart := time.Now()
		fn.router.Undrain(link.ID)
		f.l.add(spanUndrain, undrainStart)
		f.l.drainEvalMS = append(f.l.drainEvalMS, float64(time.Since(start))/float64(time.Millisecond))
	}
	if n := fn.router.DrainedCount(); n != 0 {
		return fmt.Errorf("%s: %d links still drained after undrain", fn.net.Name, n)
	}
	if !(a >= 0 && a <= 1) {
		return fmt.Errorf("%s: drain availability %v outside [0,1]", fn.net.Name, a)
	}
	f.hash = f.hash*31 + math.Float64bits(a)
	f.steps++
	fn.cur += a
	if f.i++; f.i == len(fn.sample) {
		fn.sweeps = append(fn.sweeps, fn.cur)
		fn.cur, f.i = 0, 0
		f.t = (f.t + 1) % len(f.nets)
	}
	return nil
}

func (f *fabric) digest() uint64 {
	d := fnv.New64a()
	fmt.Fprintf(d, "%d %x", f.steps, f.hash)
	return d.Sum64()
}

// finish checks every completed sweep against maintindex.Evaluate on the
// same topology: the undrained availability must equal ThroughputNorm and
// each sweep's mean must reproduce DrainTolerance.
func (f *fabric) finish(out io.Writer) error {
	for _, fn := range f.nets {
		if f.l != nil {
			f.l.cacheEpochs += fn.router.Epoch() - fn.epoch
		}
		fn.router = nil // free its caches before maintindex builds its own
		if len(fn.sweeps) == 0 {
			return fmt.Errorf("%s: no complete drain sweep to check", fn.net.Name)
		}
		rep := maintindex.Evaluate(fn.net, maintindex.DefaultConfig())
		if fn.base != rep.ThroughputNorm {
			return fmt.Errorf("%s: undrained availability %v, maintindex ThroughputNorm %v", fn.net.Name, fn.base, rep.ThroughputNorm)
		}
		for k, sum := range fn.sweeps {
			tol := clamp01(sum / float64(len(fn.sample)) / math.Max(fn.base, 1e-9))
			if tol != rep.Components.DrainTolerance {
				return fmt.Errorf("%s: sweep %d drain tolerance %v, maintindex %v", fn.net.Name, k, tol, rep.Components.DrainTolerance)
			}
		}
		fmt.Fprintf(out, "check drain_tolerance %s: ok, %d sweeps of %d drains, throughput %.6f, tolerance %.6f\n",
			fn.net.Name, len(fn.sweeps), len(fn.sample), rep.ThroughputNorm, rep.Components.DrainTolerance)
	}
	return nil
}

func clamp01(v float64) float64 { return math.Min(1, math.Max(0, v)) }
