package routing

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/topology"
)

// buildTopo constructs one of the four studied topology families at modest
// scale (routing cannot import maintindex's builders: maintindex depends on
// routing).
func buildTopo(t *testing.T, kind string) *topology.Network {
	t.Helper()
	var (
		n   *topology.Network
		err error
	)
	switch kind {
	case "fattree":
		n, err = topology.NewFatTree(topology.DefaultFatTree(4))
	case "leafspine":
		n, err = topology.NewLeafSpine(topology.LeafSpineConfig{
			Leaves: 8, Spines: 4, HostsPerLeaf: 8, Uplinks: 1,
			FabricGbps: 400, HostGbps: 100,
		})
	case "jellyfish":
		cfg := topology.DefaultJellyfish()
		cfg.Switches = 24
		cfg.FabricDegree = 6
		cfg.HostsPerSwitch = 3
		n, err = topology.NewJellyfish(cfg)
	case "xpander":
		cfg := topology.DefaultXpander()
		cfg.Degree = 6
		cfg.Lift = 4
		cfg.HostsPerSwitch = 3
		n, err = topology.NewXpander(cfg)
	default:
		t.Fatalf("unknown topology kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// Differential property pinning the destination-rooted engine to its
// executable specification: across topology families × randomized
// drain/fault/repair sequences × seeds, an incrementally maintained engine
// router at every worker count produces Assessments byte-identical to the
// per-pair enumerator (topology.ShortestPaths) computed from scratch.
func TestDestRootedMatchesPerPairEnumerator(t *testing.T) {
	workerCounts := []int{1, 2, 4, 8}
	for _, kind := range []string{"fattree", "leafspine", "jellyfish", "xpander"} {
		for _, seed := range []uint64{3, 11, 29} {
			net := buildTopo(t, kind)
			down := make([]bool, len(net.Links))
			health := func(id topology.LinkID) bool { return !down[id] }
			engines := make([]*Router, len(workerCounts))
			wss := make([]Workspace, len(workerCounts))
			for i, w := range workerCounts {
				engines[i] = NewRouter(net, health)
				engines[i].Workers = w
			}
			tm := UniformMatrix(net, 700)
			fabric := net.SwitchLinks()
			rng := rand.New(rand.NewPCG(seed, 0xd357))
			var want Assessment
			var wantFor []bool // usable set want was computed over
			for step := 0; step < 20; step++ {
				l := fabric[rng.IntN(len(fabric))]
				switch rng.IntN(4) {
				case 0: // fault onset or flap-down
					down[l.ID] = true
				case 1: // repair or flap-up
					down[l.ID] = false
				case 2:
					for _, e := range engines {
						e.Drain(l.ID)
					}
				case 3:
					for _, e := range engines {
						e.Undrain(l.ID)
					}
				}
				for _, e := range engines {
					e.InvalidateLink(l.ID)
				}
				// The reference is a pure function of the usable view
				// (health plus drains) and never reads the cache; it is
				// recomputed whenever that view changed.
				usable := make([]bool, len(net.Links))
				for i, l := range net.Links {
					usable[i] = engines[0].Usable(l)
				}
				if !slices.Equal(usable, wantFor) {
					want, wantFor = referenceEvaluate(engines[0], tm, referenceRoutes(engines[0], tm)), usable
				}
				for i, e := range engines {
					got := e.EvaluateInto(&wss[i], tm)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s seed %d step %d workers=%d: engine %v != per-pair reference %v",
							kind, seed, step, workerCounts[i], got, want)
					}
				}
			}
		}
	}
}

// Differential property for the latency model's port onto the arenas:
// WorstPairLatency must equal the per-percentile maximum of PathLatency over
// the per-pair enumerator's paths for every demand — on a cold router that
// never evaluated, and across randomized drain/fault/repair sequences, with
// and without an EvaluateInto between the link event and the query.
func TestWorstPairLatencyMatchesPerPairEnumerator(t *testing.T) {
	lm := DefaultLatencyModel()
	// Lossy links spread over the fabric give the tail something to find.
	loss := func(id topology.LinkID) float64 {
		if id%7 == 3 {
			return 0.04 * float64(id%5+1)
		}
		return 0
	}
	for _, kind := range []string{"fattree", "leafspine", "jellyfish", "xpander"} {
		net := buildTopo(t, kind)
		tm := UniformMatrix(net, 2000)

		cold := NewRouter(net, nil)
		routes := referenceRoutes(cold, tm)
		a := referenceEvaluate(cold, tm, routes)
		if got, want := lm.WorstPairLatency(cold, tm, a, loss), referenceWorstPairLatency(lm, cold, routes, a, loss); got != want {
			t.Fatalf("%s cold router: %+v != per-pair reference %+v", kind, got, want)
		}

		down := make([]bool, len(net.Links))
		r := NewRouter(net, func(id topology.LinkID) bool { return !down[id] })
		var ws Workspace
		fabric := net.SwitchLinks()
		rng := rand.New(rand.NewPCG(7, 0x1a7))
		for step := 0; step < 10; step++ {
			l := fabric[rng.IntN(len(fabric))]
			switch rng.IntN(4) {
			case 0:
				down[l.ID] = true
			case 1:
				down[l.ID] = false
			case 2:
				r.Drain(l.ID)
			case 3:
				r.Undrain(l.ID)
			}
			r.InvalidateLink(l.ID)
			routes = referenceRoutes(r, tm)
			if step%2 == 0 {
				a = r.EvaluateInto(&ws, tm)
			} else {
				a = referenceEvaluate(r, tm, routes) // leave the engine's structures stale
			}
			if got, want := lm.WorstPairLatency(r, tm, a, loss), referenceWorstPairLatency(lm, r, routes, a, loss); got != want {
				t.Fatalf("%s step %d: %+v != per-pair reference %+v", kind, step, got, want)
			}
		}
	}
}

// Drain-sweep cache reuse: a maintindex-style Drain → EvaluateInto → Undrain
// sweep over every fabric link must be byte-identical to a fresh-router
// evaluation at every step, both in the drained and the restored state —
// the sequence where shelf restoration (not just single-op invalidation)
// carries the result.
func TestDrainSweepCacheReuse(t *testing.T) {
	for _, kind := range []string{"fattree", "xpander"} {
		net := buildTopo(t, kind)
		r := NewRouter(net, nil)
		tm := UniformMatrix(net, 700)
		var ws Workspace
		base := r.EvaluateInto(&ws, tm)
		if want := freshEvaluate(r, tm); !reflect.DeepEqual(asValue(base), asValue(want)) {
			t.Fatalf("%s: baseline %v != fresh %v", kind, base, want)
		}
		for i, l := range net.SwitchLinks() {
			r.Drain(l.ID)
			got := r.EvaluateInto(&ws, tm)
			if want := freshEvaluate(r, tm); !reflect.DeepEqual(asValue(got), asValue(want)) {
				t.Fatalf("%s link %d drained: swept %v != fresh %v", kind, i, got, want)
			}
			r.Undrain(l.ID)
			got = r.EvaluateInto(&ws, tm)
			if want := freshEvaluate(r, tm); !reflect.DeepEqual(asValue(got), asValue(want)) {
				t.Fatalf("%s link %d restored: swept %v != fresh %v", kind, i, got, want)
			}
		}
	}
}

// asValue deep-copies an Assessment's slices so workspace-aliased results
// can be compared structurally.
func asValue(a Assessment) Assessment {
	a.PerDemand = append([]float64(nil), a.PerDemand...)
	a.LinkLoad = append([]float64(nil), a.LinkLoad...)
	return a
}

// A warm drain → evaluate → undrain → evaluate cycle — the maintindex sweep
// step — must allocate nothing: shelved structures restore via the subgraph
// signature and rebuilds recycle retained arenas.
func TestDrainSweepWarmZeroAlloc(t *testing.T) {
	net := buildTopo(t, "fattree")
	r := NewRouter(net, nil)
	tm := UniformMatrix(net, 700)
	var ws Workspace
	fabric := net.SwitchLinks()
	l0, l1 := fabric[0], fabric[len(fabric)/2]
	cycle := func(l *topology.Link) {
		r.Drain(l.ID)
		r.EvaluateInto(&ws, tm)
		r.Undrain(l.ID)
		r.EvaluateInto(&ws, tm)
	}
	// Warm every buffer the cycle can touch: both links' drained and
	// restored states, free lists and arenas.
	for i := 0; i < 3; i++ {
		cycle(l0)
		cycle(l1)
	}
	if allocs := testing.AllocsPerRun(20, func() { cycle(l0); cycle(l1) }); allocs > 0 {
		t.Fatalf("warm drain sweep cycle allocated %.1f/op, want 0", allocs)
	}
}

// Per-function warm-allocation assertions for the engine's hot functions:
// prepareDests on a fully valid matrix and buildDest into a recycled
// destState must both be allocation-free.
func TestDestRootedHotFunctionsZeroAlloc(t *testing.T) {
	net := buildTopo(t, "leafspine")
	r := NewRouter(net, nil)
	tm := UniformMatrix(net, 700)
	var ws Workspace
	r.EvaluateInto(&ws, tm)

	if allocs := testing.AllocsPerRun(50, func() { r.prepareDests(tm) }); allocs > 0 {
		t.Fatalf("warm prepareDests allocated %.1f/op, want 0", allocs)
	}

	dst := tm.Demands[0].Dst
	d := r.distFor(dst)
	ds := r.destCur[dst]
	b := r.builderFor(0)
	r.buildDest(b, ds, dst, d) // size the builder scratch and arena
	if allocs := testing.AllocsPerRun(50, func() { r.buildDest(b, ds, dst, d) }); allocs > 0 {
		t.Fatalf("buildDest into recycled state allocated %.1f/op, want 0", allocs)
	}
}
