package routing

import "repro/internal/topology"

// referenceRoutes enumerates every demand's equal-cost paths from scratch
// with topology.ShortestPaths over r's current usable subgraph: the same
// DFS, adjacency order and MaxPaths limit the destination-rooted engine
// must reproduce, sharing no state with r's cache.
func referenceRoutes(r *Router, tm TrafficMatrix) [][]topology.Path {
	routes := make([][]topology.Path, len(tm.Demands))
	for i, d := range tm.Demands {
		routes[i] = r.net.ShortestPaths(d.Src, d.Dst, r.MaxPaths, r.Usable)
	}
	return routes
}

// referenceEvaluate is the per-pair evaluation the destination-rooted engine
// replaced: loads and satisfaction accumulated in demand order over
// referenceRoutes. It is the executable specification EvaluateInto is
// differentially tested against (TestDestRootedMatchesPerPairEnumerator).
func referenceEvaluate(r *Router, tm TrafficMatrix, routes [][]topology.Path) Assessment {
	nl := len(r.net.Links)
	as := Assessment{
		PerDemand: make([]float64, len(tm.Demands)),
		LinkLoad:  make([]float64, nl),
	}
	shares := make([]float64, len(tm.Demands))
	for i, d := range tm.Demands {
		as.OfferedGbps += d.Gbps
		if len(routes[i]) == 0 {
			as.Unreachable++
			continue
		}
		shares[i] = d.Gbps / float64(len(routes[i]))
		for _, p := range routes[i] {
			for _, l := range p {
				as.LinkLoad[l.ID] += shares[i]
			}
		}
	}
	over := make([]float64, nl)
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
			over[id] = u
		}
	}
	for i, d := range tm.Demands {
		if len(routes[i]) == 0 {
			continue
		}
		achieved := 0.0
		for _, p := range routes[i] {
			worst := 1.0
			for _, l := range p {
				if over[l.ID] > worst {
					worst = over[l.ID]
				}
			}
			achieved += shares[i] / worst
		}
		as.SatisfiedGbps += achieved
		as.PerDemand[i] = achieved / d.Gbps
	}
	return as
}

// referenceWorstPairLatency is WorstPairLatency's specification: the
// maximum of PathLatency, per percentile, over every path of routes.
func referenceWorstPairLatency(lm LatencyModel, r *Router, routes [][]topology.Path, a Assessment, loss LossFn) Percentiles {
	util := func(id topology.LinkID) float64 {
		if c := r.net.Links[id].GbpsCap; c > 0 {
			return a.LinkLoad[id] / c
		}
		return 0
	}
	var worst Percentiles
	for _, paths := range routes {
		for _, p := range paths {
			pc := lm.PathLatency(p, util, loss)
			worst.P50 = max(worst.P50, pc.P50)
			worst.P99 = max(worst.P99, pc.P99)
			worst.P999 = max(worst.P999, pc.P999)
		}
	}
	return worst
}

// enginePaths expands the router's own src→dst paths out of the
// destination-rooted arena, making dst's structure current first.
func enginePaths(r *Router, src, dst topology.DeviceID) []topology.Path {
	r.prepareDests(TrafficMatrix{Demands: []Demand{{Src: src, Dst: dst}}})
	blk, n, plen := r.route(src, dst)
	out := make([]topology.Path, 0, n)
	for p := 0; p < len(blk); p += plen {
		out = append(out, topology.Path(blk[p:p+plen]))
	}
	return out
}

// cachedFields counts the destinations holding a cached distance field.
func cachedFields(r *Router) int {
	n := 0
	for _, d := range r.dist {
		if d != nil {
			n++
		}
	}
	return n
}
