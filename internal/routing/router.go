// Package routing is the network control plane of the simulation: ECMP
// flow-level routing over the healthy subgraph, administrative link drains
// (the hook the maintenance controller uses to move traffic away from
// hardware before robots touch it, §2), demand-satisfaction assessment, and
// the flap-to-tail-latency model (§1).
//
// Routing is evaluated at flow level: demands are split evenly over
// equal-cost shortest paths and per-link loads determine how much of each
// demand is satisfied. This is the standard fluid approximation used for
// topology studies; packet-level effects enter only through the latency
// model.
//
// The router keeps one cache, keyed by destination: a BFS distance field
// (dist[dst], nil when absent) and the destination-rooted ECMP structure
// built over it (destroot.go), which is current iff destCur[dst] != nil.
// Every consumer — EvaluateInto and the latency model alike — reads its
// paths from those structures. A link state change is decided per cached
// field in O(1) by one rule: a link a↔b lies on a shortest path toward dst
// iff both endpoints are reachable and |dist[a]−dist[b]| == 1 (the link is
// "tight" in the field).
//
//   - A link going down evicts the fields it is tight in, to be recomputed
//     on next use, and shelves their structures. Every other field keeps
//     both its distances and its ECMP DAG.
//   - A link coming up leaves equidistant fields untouched. Fields ranking
//     its endpoints exactly one apart keep their distances but gain a DAG
//     edge, so only their structures are shelved. Fields ranking them two
//     or more apart, or with one side unreachable, shorten and are evicted.
//
// Invalidate remains as the full-flush fallback for bulk edits.
package routing

import (
	"fmt"

	"repro/internal/topology"
)

// HealthFn reports whether a link is physically up (not Down and not being
// worked on). The fault injector's Observable view supplies this.
type HealthFn func(topology.LinkID) bool

// Router computes paths and loads over the currently usable subgraph.
type Router struct {
	net      *topology.Network
	health   HealthFn
	drained  []bool
	drainedN int

	// MaxPaths bounds equal-cost path enumeration per demand.
	MaxPaths int

	// Workers bounds the goroutines used to rebuild destination-rooted
	// structures inside EvaluateInto (0 or 1 means serial). Rebuilds are
	// pure per-destination functions, so the worker count is a throughput
	// knob only: results are byte-identical at any setting.
	Workers int

	// dist holds each destination's cached BFS distance field (index:
	// DeviceID), nil when absent.
	dist [][]int
	// lastUsable snapshots each link's usability as of the last (in)validation,
	// so health transitions that do not change usability (e.g. Healthy →
	// Flapping, which still carries traffic) cost nothing.
	lastUsable []bool
	// cacheEpoch counts effective invalidations (see Epoch).
	cacheEpoch uint64

	usableFn  topology.Usable     // cached method value, avoids per-call closure allocs
	queue     []topology.DeviceID // BFS scratch
	freeDists [][]int             // recycled distance fields
	ws        Workspace           // Evaluate's internal workspace

	// Destination-rooted engine state (destroot.go). destCur holds each
	// destination's current suffix structure; destShelf is a one-slot
	// per-destination parking spot for structures displaced by a subgraph
	// transition, restorable when the subgraph signature returns to their
	// build value (drain → undrain round trips restore for free).
	destCur     []*destState
	destShelf   []*destState
	freeStates  []*destState
	builders    []*destBuilder
	pending     []buildJob
	destMark    []uint64 // per-destination dedup scratch for prepareDests
	destSeq     uint64
	subgraphSig uint64 // Zobrist hash of the usable link set
}

// NewRouter creates a router. health may be nil, meaning all links are
// physically up.
func NewRouter(net *topology.Network, health HealthFn) *Router {
	r := &Router{
		net:        net,
		health:     health,
		drained:    make([]bool, len(net.Links)),
		MaxPaths:   8,
		dist:       make([][]int, len(net.Devices)),
		lastUsable: make([]bool, len(net.Links)),
		destCur:    make([]*destState, len(net.Devices)),
		destShelf:  make([]*destState, len(net.Devices)),
		destMark:   make([]uint64, len(net.Devices)),
	}
	r.usableFn = r.Usable
	for i, l := range net.Links {
		r.lastUsable[i] = r.Usable(l)
	}
	r.recomputeSubgraphSig()
	return r
}

// Usable reports whether a link carries traffic: physically up and not
// administratively drained.
func (r *Router) Usable(l *topology.Link) bool {
	if r.drained[l.ID] {
		return false
	}
	if r.health == nil {
		return true
	}
	return r.health(l.ID)
}

// Drain removes the link from service administratively. Draining is the
// controller's impact-mitigation primitive: traffic shifts before physical
// work begins, so a touched cable carries nothing. Draining an already
// drained link is a no-op and does not advance the cache epoch.
func (r *Router) Drain(id topology.LinkID) {
	if r.drained[id] {
		return
	}
	r.drained[id] = true
	r.drainedN++
	r.InvalidateLink(id)
}

// Undrain returns the link to service.
func (r *Router) Undrain(id topology.LinkID) {
	if !r.drained[id] {
		return
	}
	r.drained[id] = false
	r.drainedN--
	r.InvalidateLink(id)
}

// Drained reports the administrative state.
func (r *Router) Drained(id topology.LinkID) bool { return r.drained[id] }

// DrainedCount returns how many links are currently drained.
func (r *Router) DrainedCount() int { return r.drainedN }

// Epoch returns the current cache epoch. It advances exactly when an
// invalidation changed the usable subgraph (or Invalidate flushed), so
// tests can assert that no-op transitions cost nothing.
func (r *Router) Epoch() uint64 { return r.cacheEpoch }

// InvalidateLink reacts to a state change of one link (flap, drain, undrain,
// repair). If the link's usability did not change (a Healthy→Flapping
// transition, a drain of an already-down link), nothing happens. Otherwise
// each cached distance field is judged in O(1) by the tightness of the link
// in it, as the package documentation describes.
func (r *Router) InvalidateLink(id topology.LinkID) {
	l := r.net.Links[id]
	u := r.Usable(l)
	if u == r.lastUsable[id] {
		return
	}
	r.lastUsable[id] = u
	r.subgraphSig ^= destLinkSig(id) // toggle the link in/out of the Zobrist hash
	r.cacheEpoch++
	a, b := l.A.Device.ID, l.B.Device.ID
	for i, d := range r.dist {
		if d == nil {
			continue
		}
		da, db := d[a], d[b]
		if da == db {
			continue // equidistant (or both unreachable): never on a shortest path
		}
		tight := da >= 0 && db >= 0 && (da-db == 1 || db-da == 1)
		if !u && !tight {
			continue // the lost link was on no shortest path: field and DAG stand
		}
		dst := topology.DeviceID(i)
		// Either way the destination's DAG changed. An undrain restores the
		// shelved pre-drain structure via the subgraph signature.
		r.shelveDest(dst)
		if !u || !tight {
			// A tight link went down (distances may grow), or a link bridging
			// ≥2 hops came up (distances shrink): recompute on next use.
			r.evictDist(dst)
		}
	}
}

func (r *Router) evictDist(dst topology.DeviceID) {
	r.freeDists = append(r.freeDists, r.dist[dst])
	r.dist[dst] = nil
}

// Invalidate flushes every cached distance field and shelves every
// destination structure — the fallback for bulk topology edits or direct
// health-map mutation outside the per-link notification path. Single-link
// transitions should use InvalidateLink instead. Shelved structures stay
// restorable: the recomputed signature keeps the shelf check exact even
// after bulk edits.
func (r *Router) Invalidate() {
	r.cacheEpoch++
	for i, l := range r.net.Links {
		r.lastUsable[i] = r.Usable(l)
	}
	r.recomputeSubgraphSig()
	for i, d := range r.dist {
		if d != nil {
			r.shelveDest(topology.DeviceID(i))
			r.evictDist(topology.DeviceID(i))
		}
	}
}

// distFor returns the BFS distance field toward dst, computing it into a
// recycled buffer when absent. Caching per destination is what makes
// evaluating thousands of demands cheap: one BFS serves every source.
//
//selfmaint:hotpath
func (r *Router) distFor(dst topology.DeviceID) []int {
	if d := r.dist[dst]; d != nil {
		return d
	}
	var d []int
	if n := len(r.freeDists); n > 0 {
		d = r.freeDists[n-1]
		r.freeDists[n-1] = nil
		r.freeDists = r.freeDists[:n-1]
	} else {
		//lint:allow hotpathalloc free-list miss; the field is cached and recycled, steady state reuses buffers
		d = make([]int, len(r.net.Devices))
	}
	r.queue = r.net.HopDistancesInto(dst, r.usableFn, d, r.queue)
	r.dist[dst] = d
	return d
}

// route returns the equal-cost paths from src to dst as a span of dst's
// arena: n paths of plen links each, back to back in block. n is zero when
// src == dst or dst is unreachable. dst's structure must be current (see
// prepareDests).
//
//selfmaint:hotpath
func (r *Router) route(src, dst topology.DeviceID) (block []*topology.Link, n, plen int) {
	if src == dst {
		return nil, 0, 0
	}
	ds := r.destCur[dst]
	n, plen = int(ds.count[src]), int(ds.plen[src])
	s := int(ds.start[src])
	return ds.arena[s : s+n*plen], n, plen
}

// Assessment is the result of evaluating a traffic matrix.
type Assessment struct {
	OfferedGbps   float64
	SatisfiedGbps float64
	// PerDemand is the satisfaction fraction of each demand, aligned with
	// the evaluated matrix.
	PerDemand []float64
	// Unreachable counts demands with no usable path at all.
	Unreachable int
	// MaxUtil is the highest link load/capacity ratio (pre-clamping).
	MaxUtil float64
	// LinkLoad is the offered load per link in Gbps (index: LinkID).
	LinkLoad []float64
}

// Availability is the satisfied fraction of offered traffic, the paper's
// service-level lens on link failures.
func (a Assessment) Availability() float64 {
	if a.OfferedGbps == 0 {
		return 1
	}
	return a.SatisfiedGbps / a.OfferedGbps
}

// String renders a summary.
func (a Assessment) String() string {
	return fmt.Sprintf("offered %.0fG satisfied %.0fG (%.4f), unreachable %d, maxutil %.2f",
		a.OfferedGbps, a.SatisfiedGbps, a.Availability(), a.Unreachable, a.MaxUtil)
}

// routed is one demand's routing decision within an evaluation: the
// arena-backed span from route (block of n paths, plen links each).
type routed struct {
	block   []*topology.Link
	n, plen int
	share   float64
}

// Workspace holds the scratch buffers one traffic-matrix evaluation needs.
// A zero Workspace is ready to use; buffers grow to the fabric size on
// first evaluation and are retained, so steady-state assessment through
// EvaluateInto allocates nothing. A Workspace must not be shared across
// goroutines.
type Workspace struct {
	perDemand []float64
	linkLoad  []float64
	over      []float64
	routes    []routed
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		//lint:allow hotpathalloc amortized doubling of a reused scratch buffer; steady state never re-enters
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Evaluate routes the matrix over the usable subgraph: each demand splits
// evenly across its equal-cost paths, and each demand's achieved rate is
// its offered rate divided by the worst overload factor along its paths —
// a one-shot approximation of proportional sharing under congestion.
// The returned Assessment owns its slices; hot loops that do not retain
// results should use EvaluateInto instead.
func (r *Router) Evaluate(tm TrafficMatrix) Assessment {
	as := r.EvaluateInto(&r.ws, tm)
	as.PerDemand = append([]float64(nil), as.PerDemand...)
	as.LinkLoad = append([]float64(nil), as.LinkLoad...)
	return as
}

// EvaluateInto is Evaluate against caller-owned scratch: the returned
// Assessment's PerDemand and LinkLoad alias ws buffers and are valid until
// the workspace's next evaluation. With warm caches it performs zero heap
// allocations.
//
// Path resolution runs on the destination-rooted engine (destroot.go): one
// shared suffix structure per destination serves every source, in place of
// an independent DFS per pair. The accumulation loops below run in demand
// order over the same per-pair path sequences topology.ShortestPaths
// enumerates, so every float summation order — and the Assessment — is
// byte-identical to a per-pair evaluation at any Workers setting.
//
//selfmaint:hotpath
func (r *Router) EvaluateInto(ws *Workspace, tm TrafficMatrix) Assessment {
	r.prepareDests(tm)
	nd, nl := len(tm.Demands), len(r.net.Links)
	ws.perDemand = growFloats(ws.perDemand, nd)
	ws.linkLoad = growFloats(ws.linkLoad, nl)
	ws.over = growFloats(ws.over, nl)
	if cap(ws.routes) < nd {
		//lint:allow hotpathalloc workspace growth on first use; the buffer is retained, steady state allocates nothing
		ws.routes = make([]routed, nd)
	} else {
		ws.routes = ws.routes[:nd]
	}
	as := Assessment{
		PerDemand: ws.perDemand,
		LinkLoad:  ws.linkLoad,
	}
	for i, d := range tm.Demands {
		as.OfferedGbps += d.Gbps
		blk, n, plen := r.route(d.Src, d.Dst)
		if n == 0 {
			ws.routes[i] = routed{}
			as.Unreachable++
			continue
		}
		share := d.Gbps / float64(n)
		ws.routes[i] = routed{block: blk, n: n, plen: plen, share: share}
		for p := 0; p < len(blk); p += plen {
			for _, l := range blk[p : p+plen] {
				as.LinkLoad[l.ID] += share
			}
		}
	}
	// Overload factors.
	for id, load := range as.LinkLoad {
		cap := r.net.Links[id].GbpsCap
		if cap <= 0 {
			continue
		}
		u := load / cap
		if u > as.MaxUtil {
			as.MaxUtil = u
		}
		if u > 1 {
			ws.over[id] = u
		}
	}
	for i, d := range tm.Demands {
		rt := &ws.routes[i]
		if rt.n == 0 {
			continue
		}
		achieved := 0.0
		for p := 0; p < len(rt.block); p += rt.plen {
			worst := 1.0
			for _, l := range rt.block[p : p+rt.plen] {
				if ws.over[l.ID] > worst {
					worst = ws.over[l.ID]
				}
			}
			achieved += rt.share / worst
		}
		as.SatisfiedGbps += achieved
		as.PerDemand[i] = achieved / d.Gbps
	}
	return as
}
