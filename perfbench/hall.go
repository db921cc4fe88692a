package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"time"

	"repro/internal/bus"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/selfmaint"
)

// The hall hall-observed runs (and, unobserved, its reference build): a
// 32-leaf × 8-spine leaf-spine pod with 16 hosts per leaf (768 links) at L3,
// with robots, two technicians and faults accelerated ×20, full-size F8's
// rate; the fleet's regions are the same hall. At ×30 spare-part stockouts
// set off retry storms whose size varies chaotically with the seed (2.4k to
// 5.8k stockout retries across eight seeds over 500 simulated days), which
// spread run_s by 40%; at ×20 they stay a few hundred.
const (
	hallLeaves       = 32
	hallSpines       = 8
	hallHostsPerLeaf = 16
	hallTechs        = 2
	hallAccel        = 20
	hostGbps         = 100
	// probeEvery is the availability probe period in steps: once a
	// simulated day at one simulated hour per step.
	probeEvery = 24
	// Control-plane watchers on hall-observed: drainers take every frame
	// at each step edge; stalled ones never read, so their queues fill and
	// the hub's coalesce and drop paths run.
	drainers = 8
	stalled  = 4
)

var hallObserved = &workload{
	name:           "hall-observed",
	stepsPerSecond: 700,
	checkpoint:     960,
	build: func(seed uint64, sc scale, l *layers) (system, error) {
		return buildHall(seed, true, sc, l)
	},
	// Observation must not perturb the run: the observed hall's digest
	// must equal the unobserved one's.
	reference: func(seed uint64, sc scale) (system, error) { return buildHall(seed, false, sc, nil) },
}

type hall struct {
	c     *selfmaint.Cluster
	w     *scenario.World
	l     *layers
	et    *engineTrace
	probe routing.TrafficMatrix
	ws    routing.Workspace
	steps int
	// probeHash folds every probe result into the digest.
	probeHash uint64

	observed bool
	rec      *selfmaint.Recording
	recBuf   *recordBuffer
	hub      *controlplane.Hub
	feed     *selfmaint.Feed
	watchers []*controlplane.Attachment // the first drainers of them drain
	taken    uint64

	busStart   bus.Stats
	firedStart uint64
	epochStart uint64
}

func buildHall(seed uint64, observed bool, sc scale, l *layers) (*hall, error) {
	h := &hall{l: l, observed: observed}
	var topoBuild time.Duration
	opts := []selfmaint.Option{
		selfmaint.WithSeed(seed),
		selfmaint.WithLevel(selfmaint.L3),
		selfmaint.WithRobots(),
		selfmaint.WithTechnicians(hallTechs),
		selfmaint.WithFaultAcceleration(hallAccel),
		selfmaint.WithTopology(func() (*topology.Network, error) {
			start := time.Now()
			n, err := topology.NewLeafSpine(topology.LeafSpineConfig{
				Leaves: hallLeaves, Spines: hallSpines, HostsPerLeaf: hallHostsPerLeaf,
				Uplinks: 1, FabricGbps: 400, HostGbps: hostGbps,
			})
			topoBuild = time.Since(start)
			return n, err
		}),
	}
	var policy *timedPolicy
	if l != nil {
		policy = &timedPolicy{}
		l.policy = policy
		opts = append(opts, func(o *scenario.Options) { o.Policy = policy })
	}
	start := time.Now()
	c, err := selfmaint.NewCluster(opts...)
	if err != nil {
		return nil, err
	}
	if l != nil {
		l.spans[spanScenarioBuild] += time.Since(start) - topoBuild
		l.spans[spanTopologyBuild] += topoBuild
	}
	h.c, h.w = c, c.World()
	if policy != nil {
		policy.inner = core.NewLadderPolicy(h.w.Diag, h.w.Inj)
	}

	// Warm-up: a simulated burn-in so the timed span starts with tickets
	// in flight, then the cold route fill of a full uniform matrix. The
	// burn-in comes first so its drains run on an empty route cache and the
	// set-up's cost does not depend on how many faults the seed brings.
	c.Run(sim.Time(sc.hallBurnIn) * sim.Day)
	start = time.Now()
	c.Availability(float64(len(h.w.Net.Hosts()) * hostGbps))
	l.add(spanColdFill, start)
	h.probe = leafProbe(h.w.Net)

	if observed {
		h.recBuf = &recordBuffer{l: l}
		h.rec, err = c.RecordTo(h.recBuf, map[string]string{"workload": "hall-observed", "seed": fmt.Sprint(seed)}, 0)
		if err != nil {
			return nil, fmt.Errorf("attach recorder: %w", err)
		}
		h.hub = controlplane.NewHub(controlplane.Config{})
		h.feed = c.FeedControlPlane(h.hub)
		for i := 0; i < drainers+stalled; i++ {
			a, err := h.hub.Attach(controlplane.AttachOptions{Client: fmt.Sprintf("watcher-%d", i)})
			if err != nil {
				return nil, fmt.Errorf("attach watcher: %w", err)
			}
			h.watchers = append(h.watchers, a)
		}
	}
	return h, nil
}

// leafProbe is a uniform matrix over one host per leaf at full host
// injection. It loads every leaf's uplinks as a full uniform matrix does,
// with about 1/260 of its demand pairs, so the daily probe stays a small
// share of a simulated day's work.
func leafProbe(net *topology.Network) routing.TrafficMatrix {
	seen := map[topology.DeviceID]bool{}
	var hosts []topology.DeviceID
	for _, h := range net.Hosts() {
		l := h.Ports[0].Link
		leaf := l.A.Device
		if leaf == h {
			leaf = l.B.Device
		}
		if !seen[leaf.ID] {
			seen[leaf.ID] = true
			hosts = append(hosts, h.ID)
		}
	}
	n := len(hosts)
	tm := routing.TrafficMatrix{Name: "leaf-probe"}
	for _, s := range hosts {
		for _, d := range hosts {
			if s != d {
				tm.Demands = append(tm.Demands, routing.Demand{Src: s, Dst: d, Gbps: hostGbps / float64(n-1)})
			}
		}
	}
	return tm
}

func (h *hall) begin() {
	h.busStart = h.w.Bus.Stats()
	h.firedStart = h.w.Eng.Fired()
	h.epochStart = h.w.Router.Epoch()
	if h.l != nil {
		h.et = h.l.newEngineTrace()
		h.w.Eng.SetTracer(h.et.fire)
	}
}

func (h *hall) step() error {
	target := h.c.Now() + sim.Hour
	h.c.Run(sim.Hour)
	if h.et != nil {
		h.et.end(time.Now())
	}
	if now := h.c.Now(); now != target {
		return fmt.Errorf("clock at %v after a step to %v", now, target)
	}
	h.steps++
	if h.steps%probeEvery == 0 {
		start := time.Now()
		a := h.w.Router.EvaluateInto(&h.ws, h.probe).Availability()
		h.l.add(spanEvaluate, start)
		if !(a >= 0 && a <= 1) {
			return fmt.Errorf("probe availability %v outside [0,1]", a)
		}
		h.probeHash = h.probeHash*31 + math.Float64bits(a)
	}
	if h.observed {
		start := time.Now()
		h.feed.Sync()
		if h.l != nil {
			h.l.feedSyncMS = append(h.l.feedSyncMS, float64(time.Since(start))/float64(time.Millisecond))
		}
		start = time.Now()
		for _, a := range h.watchers[:drainers] {
			for {
				frames, _ := a.Take(1024)
				h.taken += uint64(len(frames))
				if len(frames) < 1024 {
					break
				}
			}
		}
		h.l.add(spanTake, start)
	}
	return nil
}

func (h *hall) digest() uint64 {
	d := fnv.New64a()
	fmt.Fprintf(d, "%+v\nfired %d probes %x\n", h.c.Report(), h.w.Eng.Fired(), h.probeHash)
	for id := range h.w.Net.Links {
		hl, fl, dn := h.w.Ledger.Durations(topology.LinkID(id))
		fmt.Fprintf(d, "%d %d %d\n", hl, fl, dn)
	}
	for _, t := range h.w.Store.All() {
		fmt.Fprintf(d, "%d %d %v %v %v %d\n", t.ID, t.Link.ID, t.Kind, t.Status, t.CreatedAt, len(t.Attempts))
	}
	return d.Sum64()
}

func (h *hall) finish(out io.Writer) error {
	h.ledgerCheck(out)
	bs := h.w.Bus.Stats()
	published := bs.Published - h.busStart.Published
	if l := h.l; l != nil {
		l.events = h.w.Eng.Fired() - h.firedStart
		l.busPublished = published
		l.busDeliveries = bs.Deliveries - h.busStart.Deliveries
		l.cacheEpochs = h.w.Router.Epoch() - h.epochStart
	}
	if !h.observed {
		return nil
	}
	st := h.hub.Stats()
	dropped, coalesced := h.hub.DropsByTopic()
	fmt.Fprintf(out, "controlplane: published %d, delivered %d, dropped %d %v, coalesced %d %v\n",
		st.Published, h.taken, st.Dropped, dropped, st.Coalesced, coalesced)
	if l := h.l; l != nil {
		l.cpPublished, l.cpDelivered, l.cpDropped, l.cpCoalesced = st.Published, h.taken, st.Dropped, st.Coalesced
	}
	if st.Dropped == 0 || st.Coalesced == 0 {
		return fmt.Errorf("stalled watchers saw %d drops and %d coalesces; both paths must run", st.Dropped, st.Coalesced)
	}

	start := time.Now()
	live, err := h.rec.Close()
	h.l.add(spanRecClose, start)
	if err != nil {
		return fmt.Errorf("close recording: %w", err)
	}
	if l := h.l; l != nil {
		l.frBytes = uint64(h.recBuf.Len())
		l.frFrames = live.Frames()
		l.frEvents = live.Events()
	}
	replayed, err := flightrec.Replay(bytes.NewReader(h.recBuf.Bytes()))
	if err != nil {
		return fmt.Errorf("replay recording: %w", err)
	}
	if got := replayed.Summary.Events(); got != published || live.Events() != published || !replayed.Match() {
		return fmt.Errorf("recording: %d events published, %d recorded, %d replayed, fingerprint match %v",
			published, live.Events(), got, replayed.Match())
	}
	fmt.Fprintf(out, "check recording_replay: ok, %d events in %d bytes replay to the live fingerprint\n",
		published, h.recBuf.Len())
	return nil
}

// ledgerCheck prints the report's fleet availability beside the same
// figure recomputed in float64 from per-link durations. They disagree on
// long runs of large halls: HealthLedger.Fleet sums int64 nanoseconds
// across links, which wraps past about 292 link-years. This is a known
// defect of the ledger, printed on every hall run and not counted as a
// failed check until the ledger is fixed.
func (h *hall) ledgerCheck(out io.Writer) {
	var healthy, total float64
	for id := range h.w.Net.Links {
		hl, fl, dn := h.w.Ledger.Durations(topology.LinkID(id))
		healthy += float64(hl)
		total += float64(hl) + float64(fl) + float64(dn)
	}
	recomputed := healthy / total
	report := h.c.Report().FleetAvailability
	status := "agree"
	if math.Abs(report-recomputed) > 1e-9 {
		status = "DISAGREE (known defect: HealthLedger.Fleet sums int64 ns and wraps past ~292 link-years)"
	}
	fmt.Fprintf(out, "check ledger_availability: report %.6f, recomputed %.6f over %.0f link-years: %s\n",
		report, recomputed, total/float64(sim.Year), status)
}

// recordBuffer keeps the flight recording in memory for the replay check
// and times the recorder's writes.
type recordBuffer struct {
	bytes.Buffer
	l *layers
}

func (b *recordBuffer) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := b.Buffer.Write(p)
	b.l.add(spanRecWrite, start)
	return n, err
}
