package routing

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/topology"
)

// freshEvaluate evaluates tm on a brand-new router replicating r's health
// view and drain set — the ground truth any amount of incremental cache
// maintenance must reproduce byte-identically.
func freshEvaluate(r *Router, tm TrafficMatrix) Assessment {
	ref := NewRouter(r.net, r.health)
	ref.MaxPaths = r.MaxPaths
	for id, d := range r.drained {
		if d {
			ref.Drain(topology.LinkID(id))
		}
	}
	return ref.Evaluate(tm)
}

// Differential property: a router maintained with per-link incremental
// invalidation produces byte-identical assessments to one that full-flushes
// after every change, across randomized flap/drain/undrain/repair sequences
// on random fabrics.
func TestIncrementalInvalidationMatchesFullFlush(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 7, 11, 23, 42} {
		net := buildRandomFabric(t, 12, 4, 2, seed)
		down := map[topology.LinkID]bool{}
		health := func(id topology.LinkID) bool { return !down[id] }
		inc := NewRouter(net, health)
		ref := NewRouter(net, health)
		tm := UniformMatrix(net, 700)
		fabric := net.SwitchLinks()
		rng := rand.New(rand.NewPCG(seed, 0x1f1a9))
		for step := 0; step < 50; step++ {
			l := fabric[rng.IntN(len(fabric))]
			switch rng.IntN(4) {
			case 0: // fault onset or flap-down
				down[l.ID] = true
				inc.InvalidateLink(l.ID)
			case 1: // repair or flap-up
				down[l.ID] = false
				inc.InvalidateLink(l.ID)
			case 2:
				inc.Drain(l.ID)
				ref.Drain(l.ID)
			case 3:
				inc.Undrain(l.ID)
				ref.Undrain(l.ID)
			}
			ref.Invalidate() // the reference router always full-flushes
			a, b := inc.Evaluate(tm), ref.Evaluate(tm)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d step %d: incremental %v != full-flush %v", seed, step, a, b)
			}
			if inc.DrainedCount() != ref.DrainedCount() {
				t.Fatalf("seed %d step %d: drained count %d != %d",
					seed, step, inc.DrainedCount(), ref.DrainedCount())
			}
		}
	}
}

func TestRepeatedDrainDoesNotBumpEpoch(t *testing.T) {
	n := leafSpine(t, 2, 2, 2, 1)
	r := NewRouter(n, nil)
	l := n.SwitchLinks()[0]
	r.Drain(l.ID)
	e := r.Epoch()
	r.Drain(l.ID)
	if r.Epoch() != e {
		t.Fatalf("repeated Drain bumped epoch %d -> %d", e, r.Epoch())
	}
	if r.DrainedCount() != 1 {
		t.Fatalf("DrainedCount = %d after double drain", r.DrainedCount())
	}
	r.Undrain(l.ID)
	e2 := r.Epoch()
	if e2 == e {
		t.Fatal("Undrain of a drained link did not bump the epoch")
	}
	r.Undrain(l.ID)
	if r.Epoch() != e2 {
		t.Fatal("repeated Undrain bumped the epoch")
	}
	if r.DrainedCount() != 0 {
		t.Fatalf("DrainedCount = %d after undrain", r.DrainedCount())
	}
}

// A health transition that does not change usability (Healthy → Flapping:
// the link still carries traffic) must leave every cached entry in place.
func TestInvalidateLinkNoOpWhenUsabilityUnchanged(t *testing.T) {
	n := leafSpine(t, 4, 2, 2, 1)
	r := NewRouter(n, nil)
	tm := UniformMatrix(n, 200)
	r.Evaluate(tm)
	e, nd := r.Epoch(), cachedFields(r)
	if nd == 0 {
		t.Fatal("no distance fields cached after evaluation")
	}
	for _, l := range n.SwitchLinks() {
		r.InvalidateLink(l.ID)
	}
	if r.Epoch() != e || cachedFields(r) != nd {
		t.Fatalf("no-op invalidation disturbed the cache: epoch %d->%d, fields %d->%d",
			e, r.Epoch(), nd, cachedFields(r))
	}
}

// linkInvalidator mirrors the production wiring: health transitions evict
// only the entries that crossed the changed link.
type linkInvalidator struct{ r *Router }

func (li linkInvalidator) LinkStateChanged(l *topology.Link, _, _ faults.Health, _ sim.Time) {
	li.r.InvalidateLink(l.ID)
}
func (li linkInvalidator) LinkFlapped(*topology.Link, sim.Time, float64, sim.Time) {}

// Draining a link in the middle of an in-flight flap episode must yield the
// same assessment as a cold router with the same health and drain state.
func TestDrainDuringFlapEpisode(t *testing.T) {
	n := leafSpine(t, 4, 2, 2, 1)
	eng := sim.NewEngine(9)
	inj := faults.NewInjector(eng, n, faults.DefaultConfig())
	r := NewRouter(n, func(id topology.LinkID) bool { return inj.Observable(id) != faults.Down })
	inj.Subscribe(linkInvalidator{r})
	tm := UniformMatrix(n, 300)

	l := n.SwitchLinks()[0]
	eng.Schedule(sim.Hour, "break", func() { inj.InduceFault(l, faults.Contamination) })
	eng.RunUntil(2 * sim.Hour)
	r.Evaluate(tm) // warm caches mid-episode
	r.Drain(l.ID)
	if got, want := r.Evaluate(tm), freshEvaluate(r, tm); !reflect.DeepEqual(got, want) {
		t.Fatalf("drain during flap episode: %v != fresh %v", got, want)
	}
	r.Undrain(l.ID)
	if got, want := r.Evaluate(tm), freshEvaluate(r, tm); !reflect.DeepEqual(got, want) {
		t.Fatalf("undrain during flap episode: %v != fresh %v", got, want)
	}
}

// Undraining a link whose peer device has lost all its other links must not
// resurrect stale paths through the isolated device.
func TestUndrainWithPeerDeviceDown(t *testing.T) {
	n := leafSpine(t, 4, 2, 2, 1)
	down := map[topology.LinkID]bool{}
	r := NewRouter(n, func(id topology.LinkID) bool { return !down[id] })
	tm := UniformMatrix(n, 300)
	r.Evaluate(tm)

	uplink := n.SwitchLinks()[0]
	spine := uplink.A.Device
	if spine.Kind != topology.SpineSwitch {
		spine = uplink.B.Device
	}
	r.Drain(uplink.ID)
	r.Evaluate(tm)
	// Take the peer spine's remaining links down one by one (device down).
	for _, np := range n.Neighbors(spine.ID) {
		if np.Link.ID != uplink.ID {
			down[np.Link.ID] = true
			r.InvalidateLink(np.Link.ID)
		}
	}
	r.Evaluate(tm)
	r.Undrain(uplink.ID) // back in service, but it leads to an isolated device
	if got, want := r.Evaluate(tm), freshEvaluate(r, tm); !reflect.DeepEqual(got, want) {
		t.Fatalf("undrain toward downed device: %v != fresh %v", got, want)
	}
	// Recover the device; everything must match a cold router again.
	for _, np := range n.Neighbors(spine.ID) {
		if down[np.Link.ID] {
			down[np.Link.ID] = false
			r.InvalidateLink(np.Link.ID)
		}
	}
	if got, want := r.Evaluate(tm), freshEvaluate(r, tm); !reflect.DeepEqual(got, want) {
		t.Fatalf("after device recovery: %v != fresh %v", got, want)
	}
}

// Steady-state evaluation through a workspace must not allocate: this is
// the per-cell hot loop, asserted here so regressions fail tier-1.
func TestEvaluateSteadyStateZeroAlloc(t *testing.T) {
	n := leafSpine(t, 4, 2, 4, 1)
	r := NewRouter(n, nil)
	tm := UniformMatrix(n, 300)
	var ws Workspace
	r.EvaluateInto(&ws, tm) // warm caches and grow buffers
	if allocs := testing.AllocsPerRun(100, func() { r.EvaluateInto(&ws, tm) }); allocs != 0 {
		t.Fatalf("EvaluateInto allocated %.1f/op in steady state", allocs)
	}
}

// Each //selfmaint:hotpath function inside the router holds at zero
// steady-state allocations individually, not just through EvaluateInto:
// warm-cache route lookup and distance-field recycling both serve from
// retained buffers.
func TestHotpathFunctionsSteadyStateZeroAlloc(t *testing.T) {
	n := leafSpine(t, 4, 2, 4, 1)
	r := NewRouter(n, nil)
	tm := UniformMatrix(n, 300)
	var ws Workspace
	r.EvaluateInto(&ws, tm) // warm caches and free lists
	d0 := tm.Demands[0]

	// route + distFor on the warm cache.
	if allocs := testing.AllocsPerRun(100, func() {
		r.distFor(d0.Dst)
		r.route(d0.Src, d0.Dst)
	}); allocs != 0 {
		t.Fatalf("warm distFor/route allocated %.1f/op", allocs)
	}

	// distFor recomputing an evicted field must serve from the distance
	// free list and the retained BFS queue.
	if allocs := testing.AllocsPerRun(100, func() {
		r.evictDist(d0.Dst)
		r.distFor(d0.Dst)
	}); allocs != 0 {
		t.Fatalf("evict+recompute distFor allocated %.1f/op", allocs)
	}
}

// Link events are judged per cached field by the tightness test alone. A
// link going down evicts exactly the fields in which it joins two devices
// one hop apart. A link coming up shelves the structure of every field
// ranking its endpoints differently, and evicts those ranking them two or
// more apart (or with one side unreachable). Everything else stays cached.
func TestLinkEventEvictsOnlyTightFields(t *testing.T) {
	n := buildTopo(t, "fattree")
	r := NewRouter(n, nil)
	tm := UniformMatrix(n, 700)
	var ws Workspace
	check := func(l *topology.Link, up bool, change func()) {
		t.Helper()
		r.EvaluateInto(&ws, tm)
		a, b := l.A.Device.ID, l.B.Device.ID
		before := append([][]int(nil), r.dist...)
		change()
		for dst, d := range before {
			if d == nil {
				continue
			}
			da, db := d[a], d[b]
			tight := da >= 0 && db >= 0 && (da-db == 1 || db-da == 1)
			evict, shelve := tight, tight
			if up {
				evict, shelve = da != db && !tight, da != db
			}
			if kept := r.dist[dst] != nil; kept == evict {
				t.Fatalf("link %d up=%v dst %d (%d,%d): field kept=%v", l.ID, up, dst, da, db, kept)
			}
			if kept := r.destCur[dst] != nil; kept == shelve {
				t.Fatalf("link %d up=%v dst %d (%d,%d): structure kept=%v", l.ID, up, dst, da, db, kept)
			}
		}
		if got, want := r.EvaluateInto(&ws, tm), freshEvaluate(r, tm); !reflect.DeepEqual(asValue(got), asValue(want)) {
			t.Fatalf("link %d up=%v: %v != fresh %v", l.ID, up, got, want)
		}
	}
	for _, l := range n.SwitchLinks() {
		check(l, false, func() { r.Drain(l.ID) })
		check(l, true, func() { r.Undrain(l.ID) })
	}
}
