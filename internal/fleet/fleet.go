// Package fleet coordinates a multi-datacenter, region-sharded simulation:
// N regions, each a full self-maintenance world on its own sim.Engine (one
// shard of a sim.MultiEngine), plus a fleet hub shard that owns the
// inter-region overlay network and the fleet-level aggregation stage. It is
// the "datacenters of robots, fleets of datacenters" scale-out of the
// paper's pitch: regions drain their event heaps in parallel between
// deterministic epoch barriers, and everything that crosses a region
// boundary — health summaries, robot transfers, trunk notifications — is a
// cross-shard event exchanged at the barrier in (shard, seq) order, so a
// fleet run is byte-identical at any worker count.
//
// The package is deliberately model-agnostic about what a region is: the
// Region interface is implemented by internal/scenario, which wires a
// complete World (topology, faults, telemetry, pipeline, robots, humans)
// per region. That keeps the dependency arrow pointing one way — scenario
// imports fleet, never the reverse.
package fleet

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/bus"
	"repro/internal/sim"
)

// Summary is one region's periodic health snapshot, shipped to the hub as
// a cross-shard event and aggregated into the fleet ledger.
type Summary struct {
	Region      int
	At          sim.Time
	Links       int
	LinksDown   int
	OpenTickets int // open reactive+proactive tickets
	Resolved    int // tickets resolved since the epoch start of the run
	RobotsIdle  int
	RobotsTotal int
}

// PayloadKind implements bus.Recordable.
func (Summary) PayloadKind() string { return "fleet-summary" }

// WriteFields implements bus.Recordable.
func (s Summary) WriteFields(w bus.FieldWriter) {
	w.Int("region", int64(s.Region))
	w.Int("at", int64(s.At))
	w.Int("links", int64(s.Links))
	w.Int("links-down", int64(s.LinksDown))
	w.Int("open-tickets", int64(s.OpenTickets))
	w.Int("resolved", int64(s.Resolved))
	w.Int("robots-idle", int64(s.RobotsIdle))
	w.Int("robots-total", int64(s.RobotsTotal))
}

// DownFrac is the fraction of the region's links currently unhealthy.
func (s Summary) DownFrac() float64 {
	if s.Links == 0 {
		return 0
	}
	return float64(s.LinksDown) / float64(s.Links)
}

// Region is the per-shard model the fleet coordinates. Every method is
// invoked on the region's own shard (build, epoch event, or post-run
// coordinator context) — implementations never need locks.
type Region interface {
	// Summary returns a deterministic snapshot of the region's health.
	Summary(at sim.Time) Summary
	// LendUnit withdraws one idle robot for transfer to another region,
	// reporting whether one was available.
	LendUnit() bool
	// ReceiveUnit deploys a transferred robot under the given name.
	ReceiveUnit(name string)
	// TrunkStateChanged notifies the region that an adjacent inter-region
	// trunk crossed the healthy/unhealthy boundary.
	TrunkStateChanged(up bool, at sim.Time)
}

// Ticket is a fleet-level ticket: a region whose fabric degraded past the
// configured threshold, opened and closed by the hub's aggregation stage.
type Ticket struct {
	Region   int
	OpenedAt sim.Time
	ClosedAt sim.Time // zero while open
}

// PayloadKind implements bus.Recordable.
func (Ticket) PayloadKind() string { return "fleet-ticket" }

// WriteFields implements bus.Recordable.
func (t Ticket) WriteFields(w bus.FieldWriter) {
	w.Int("region", int64(t.Region))
	w.Int("opened-at", int64(t.OpenedAt))
	w.Int("closed-at", int64(t.ClosedAt))
}

// Stats counts fleet-level coordination activity.
type Stats struct {
	Summaries          int
	TransfersRequested int
	TransfersGranted   int
	TransfersDeclined  int
	TicketsOpened      int
	TicketsClosed      int
	TrunkNotices       int // region notifications sent for trunk transitions
}

// Config sizes a fleet build.
type Config struct {
	Seed    uint64
	Regions int
	// Lookahead is the epoch window width: the minimum delay of every
	// cross-shard effect. Default 15 simulated minutes.
	Lookahead sim.Time
	// Workers bounds how many shards drain concurrently per epoch;
	// 0 = all host cores, 1 = serial (identical output either way).
	Workers int
	// SummaryEvery is the region health-summary period. Default 6h.
	SummaryEvery sim.Time
	// TransferTransit is how long a robot takes to ship between regions.
	// Default 12h.
	TransferTransit sim.Time
	// TransferBacklog is the open-ticket count at which a region with no
	// idle robots requests a transfer. Default 4.
	TransferBacklog int
	// TransferCooldown throttles repeat requests per region. Default 24h.
	TransferCooldown sim.Time
	// DegradedFrac is the down-link fraction that opens a fleet ticket for
	// a region; it closes below half the threshold. Default 0.02.
	DegradedFrac float64
	// TrunkGbps is the capacity of inter-region trunks. Default 400.
	TrunkGbps float64
	// TrunkFaultScale multiplies the trunk fault rates (the same
	// accelerated-aging knob the halls use). Default 1.
	TrunkFaultScale float64
	// TrunkRepairMeanH is the mean hours the backbone NOC needs to repair a
	// trunk. Default 6.
	TrunkRepairMeanH float64
	// BuildRegion constructs region r's model on its shard. Required.
	BuildRegion func(shard *sim.Shard, region int) (Region, error)
}

func (c *Config) fillDefaults() {
	if c.Lookahead <= 0 {
		c.Lookahead = 15 * sim.Minute
	}
	if c.SummaryEvery <= 0 {
		c.SummaryEvery = 6 * sim.Hour
	}
	if c.TransferTransit <= 0 {
		c.TransferTransit = 12 * sim.Hour
	}
	if c.TransferTransit < c.Lookahead {
		c.TransferTransit = c.Lookahead
	}
	if c.TransferBacklog <= 0 {
		c.TransferBacklog = 4
	}
	if c.TransferCooldown <= 0 {
		c.TransferCooldown = 24 * sim.Hour
	}
	if c.DegradedFrac <= 0 {
		c.DegradedFrac = 0.02
	}
	if c.TrunkGbps <= 0 {
		c.TrunkGbps = 400
	}
	if c.TrunkFaultScale <= 0 {
		c.TrunkFaultScale = 1
	}
	if c.TrunkRepairMeanH <= 0 {
		c.TrunkRepairMeanH = 6
	}
}

// Fleet is a built multi-region world: shard 0 is the hub (overlay network,
// fleet bus, aggregation, transfer brokering); shard r+1 is region r.
type Fleet struct {
	cfg     Config
	ME      *sim.MultiEngine
	Bus     *bus.Bus // fleet-level bus, on the hub engine
	Overlay *Overlay
	regions []Region

	// Hub-side aggregation state, mutated only by hub-shard events.
	latest      []Summary
	have        []bool
	cooldown    []sim.Time // per recipient: no new request before this
	donorBusy   []bool     // a lend request is in flight to this region
	openTicket  []int      // per region: index+1 into tickets while open
	tickets     []Ticket
	stats       Stats
	summarySubs int
}

// Bus topics published by the hub's aggregation stage.
const (
	TopicSummary  bus.Topic = "fleet.summary"
	TopicTicket   bus.Topic = "fleet.ticket"
	TopicTransfer bus.Topic = "fleet.transfer"
	TopicTrunk    bus.Topic = "fleet.trunk"
)

// TransferNote is the payload of fleet.transfer events.
type TransferNote struct {
	From, To int
	Granted  bool
	Unit     string
}

// PayloadKind implements bus.Recordable.
func (TransferNote) PayloadKind() string { return "transfer" }

// WriteFields implements bus.Recordable.
func (n TransferNote) WriteFields(w bus.FieldWriter) {
	w.Int("from", int64(n.From))
	w.Int("to", int64(n.To))
	w.Bool("granted", n.Granted)
	w.Str("unit", n.Unit)
}

// Build wires a fleet: the multi-engine, the hub's overlay + bus, every
// region via cfg.BuildRegion, and the periodic summary flow.
func Build(cfg Config) (*Fleet, error) {
	cfg.fillDefaults()
	if cfg.Regions <= 0 {
		return nil, fmt.Errorf("fleet: %d regions", cfg.Regions)
	}
	if cfg.BuildRegion == nil {
		return nil, fmt.Errorf("fleet: BuildRegion is required")
	}
	me := sim.NewMultiEngine(cfg.Seed, cfg.Regions+1, cfg.Lookahead, cfg.Workers)
	f := &Fleet{
		cfg: cfg, ME: me,
		regions:    make([]Region, cfg.Regions),
		latest:     make([]Summary, cfg.Regions),
		have:       make([]bool, cfg.Regions),
		cooldown:   make([]sim.Time, cfg.Regions),
		donorBusy:  make([]bool, cfg.Regions),
		openTicket: make([]int, cfg.Regions),
	}
	//lint:allow crossshard build-time wiring: the hub's bus and overlay live on shard 0 before the clock starts
	hub := me.Shard(0)
	f.Bus = bus.New(hub.Engine()) //lint:allow crossshard build-time wiring: the fleet bus is created on the hub shard before the run
	var err error
	f.Overlay, err = buildOverlay(f, hub)
	if err != nil {
		return nil, err
	}
	for r := 0; r < cfg.Regions; r++ {
		//lint:allow crossshard build-time wiring: each region model is constructed on its own shard before the run
		shard := me.Shard(r + 1)
		reg, err := cfg.BuildRegion(shard, r)
		if err != nil {
			return nil, fmt.Errorf("fleet: region %d: %w", r, err)
		}
		f.regions[r] = reg
		f.startSummaries(shard, r, reg)
	}
	return f, nil
}

// startSummaries schedules region r's periodic health snapshot and its
// cross-shard shipment to the hub.
func (f *Fleet) startSummaries(shard *sim.Shard, r int, reg Region) {
	//lint:allow crossshard build-time wiring: the summary ticker is installed on the region's own shard before the run
	eng := shard.Engine()
	eng.Every(f.cfg.SummaryEvery, f.cfg.SummaryEvery, "region-summary", func(at sim.Time) {
		s := reg.Summary(at)
		s.Region = r
		s.At = at
		shard.Send(0, f.cfg.Lookahead, "summary-to-hub", func() {
			f.onSummary(s)
		})
	})
}

// onSummary is the hub's aggregation stage: it runs on the hub shard for
// every region summary, updates the fleet ledger, manages fleet tickets,
// and brokers robot transfers.
func (f *Fleet) onSummary(s Summary) {
	now := f.hubNow()
	f.stats.Summaries++
	f.latest[s.Region] = s
	f.have[s.Region] = true
	f.Bus.Publish(TopicSummary, s)

	// Fleet tickets: a region past the degraded threshold gets one open
	// ticket until it recovers below half the threshold (hysteresis).
	frac := s.DownFrac()
	switch open := f.openTicket[s.Region]; {
	case open == 0 && frac >= f.cfg.DegradedFrac:
		f.tickets = append(f.tickets, Ticket{Region: s.Region, OpenedAt: now})
		f.openTicket[s.Region] = len(f.tickets)
		f.stats.TicketsOpened++
		f.Bus.Publish(TopicTicket, f.tickets[len(f.tickets)-1])
	case open != 0 && frac < f.cfg.DegradedFrac/2:
		f.tickets[open-1].ClosedAt = now
		f.openTicket[s.Region] = 0
		f.stats.TicketsClosed++
		f.Bus.Publish(TopicTicket, f.tickets[open-1])
	}

	// Robot rebalancing: a starved region (backlog, no idle robots) borrows
	// from the most idle-rich donor; the donor confirms on its own shard
	// and ships the unit with transit latency.
	if s.RobotsIdle > 0 || s.OpenTickets < f.cfg.TransferBacklog || now < f.cooldown[s.Region] {
		return
	}
	donor := -1
	best := 1 // require at least 2 idle units so donors keep local cover
	for d := 0; d < len(f.regions); d++ {
		if d == s.Region || !f.have[d] || f.donorBusy[d] {
			continue
		}
		if idle := f.latest[d].RobotsIdle; idle > best {
			best = idle
			donor = d
		}
	}
	if donor < 0 {
		return
	}
	f.stats.TransfersRequested++
	f.cooldown[s.Region] = now + f.cfg.TransferCooldown
	f.donorBusy[donor] = true
	to, from := s.Region, donor
	unit := fmt.Sprintf("xfer-%d-to-%d-n%d", from, to, f.stats.TransfersRequested)
	f.hubShard().Send(from+1, f.cfg.Lookahead, "lend-request", func() {
		f.onLendRequest(from, to, unit)
	})
}

// onLendRequest runs on the donor's shard: withdraw an idle unit if one is
// still available, ship it to the recipient, and ack the hub either way.
func (f *Fleet) onLendRequest(from, to int, unit string) {
	donorShard := f.shardOf(from)
	granted := f.regions[from].LendUnit()
	if granted {
		donorShard.Send(to+1, f.cfg.TransferTransit, "unit-arrives", func() {
			f.regions[to].ReceiveUnit(unit)
		})
	}
	donorShard.Send(0, f.cfg.Lookahead, "lend-ack", func() {
		f.donorBusy[from] = false
		if granted {
			f.stats.TransfersGranted++
		} else {
			f.stats.TransfersDeclined++
		}
		f.Bus.Publish(TopicTransfer, TransferNote{From: from, To: to, Granted: granted, Unit: unit})
	})
}

// hubShard returns shard 0. Hub-side handlers run on it by construction.
func (f *Fleet) hubShard() *sim.Shard {
	//lint:allow crossshard hub-side handlers run on shard 0 by construction; this is self-access, not foreign reach
	return f.ME.Shard(0)
}

// shardOf returns region r's shard, for handlers already running on it.
func (f *Fleet) shardOf(r int) *sim.Shard {
	//lint:allow crossshard callers run on region r's own shard (delivered there by the barrier exchange)
	return f.ME.Shard(r + 1)
}

func (f *Fleet) hubNow() sim.Time {
	//lint:allow crossshard hub-side handlers read their own shard's clock
	return f.ME.Shard(0).Engine().Now()
}

// Run advances the fleet to the given instant.
func (f *Fleet) Run(until sim.Time) { f.ME.RunUntil(until) }

// Stats returns the coordination counters.
func (f *Fleet) Stats() Stats { return f.stats }

// Tickets returns the fleet-level tickets in open order.
func (f *Fleet) Tickets() []Ticket { return f.tickets }

// Report is the deterministic end-of-run summary of a fleet simulation;
// its Render is byte-identical at any worker count for a fixed seed.
type Report struct {
	Regions   int
	Epochs    uint64
	Exchanged uint64
	Fired     uint64

	Stats        Stats
	TrunkFaults  int
	TrunkRepairs int
	OverlayAvail float64

	PerRegion []Summary // final snapshot per region
}

// Report gathers the end-of-run summary. Call it after Run returns: it
// reads every shard from the coordinator's goroutine, which is safe only
// between runs.
func (f *Fleet) Report() *Report {
	rep := &Report{
		Regions:      f.cfg.Regions,
		Epochs:       f.ME.Epochs(),
		Exchanged:    f.ME.Exchanged(),
		Fired:        f.ME.Fired(),
		Stats:        f.stats,
		TrunkFaults:  f.Overlay.Faults,
		TrunkRepairs: f.Overlay.Repairs,
		OverlayAvail: f.Overlay.Availability(f.hubNow()),
	}
	for r, reg := range f.regions {
		s := reg.Summary(f.ME.Now())
		s.Region = r
		s.At = f.ME.Now()
		rep.PerRegion = append(rep.PerRegion, s)
	}
	return rep
}

// Render formats the report; differential tests compare it byte-for-byte
// across worker counts.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: regions=%d epochs=%d cross=%d fired=%d\n",
		r.Regions, r.Epochs, r.Exchanged, r.Fired)
	fmt.Fprintf(&b, "hub: summaries=%d tickets=%d/%d transfers=%d/%d/%d trunk-faults=%d trunk-repairs=%d overlay-avail=%.6f\n",
		r.Stats.Summaries, r.Stats.TicketsOpened, r.Stats.TicketsClosed,
		r.Stats.TransfersRequested, r.Stats.TransfersGranted, r.Stats.TransfersDeclined,
		r.TrunkFaults, r.TrunkRepairs, r.OverlayAvail)
	for _, s := range r.PerRegion {
		fmt.Fprintf(&b, "region %d: links=%d down=%d open=%d resolved=%d robots=%d/%d\n",
			s.Region, s.Links, s.LinksDown, s.OpenTickets, s.Resolved, s.RobotsIdle, s.RobotsTotal)
	}
	return b.String()
}

// Fingerprint hashes the rendered report — the compact byte-identity token
// the F8 experiment prints per worker count.
func (r *Report) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte(r.Render()))
	return h.Sum64()
}
