package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bus"
	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// fleetSharded is a scaled-down F8 fleet: the staged rollout of
// scenario.BuildFleet over regions that are each the 768-link hall, run
// by two shard workers in steps of one lookahead window.
var fleetSharded = &workload{
	name:           "fleet-sharded",
	stepsPerSecond: 750,
	checkpoint:     960,
	build: func(seed uint64, sc scale, l *layers) (system, error) {
		return buildFleet(seed, 2, sc, l)
	},
	// Worker count is a throughput knob only: a one-worker build of the
	// same seed must reach the same digest.
	reference: func(seed uint64, sc scale) (system, error) { return buildFleet(seed, 1, sc, nil) },
}

// fleetStep is one lookahead window, fleet.Config's default.
const fleetStep = 15 * sim.Minute

type fleetSys struct {
	f           *fleet.Fleet
	l           *layers
	traces      []*engineTrace
	lastBarrier time.Time

	busStart       bus.Stats
	statsStart     fleet.Stats
	firedStart     uint64
	epochsStart    uint64
	exchangedStart uint64
}

func buildFleet(seed uint64, workers int, sc scale, l *layers) (*fleetSys, error) {
	start := time.Now()
	f, _, err := scenario.BuildFleet(scenario.FleetParams{
		Seed: seed, Regions: sc.fleetRegions,
		Leaves: hallLeaves, Spines: hallSpines, HostsPerLeaf: hallHostsPerLeaf,
		FaultScale: hallAccel, TrunkScale: 50,
	}, workers)
	l.add(spanFleetBuild, start)
	if err != nil {
		return nil, err
	}
	f.Run(sim.Time(sc.fleetBurnIn) * sim.Day)
	return &fleetSys{f: f, l: l}, nil
}

func (fs *fleetSys) begin() {
	me := fs.f.ME
	fs.busStart = fs.f.Bus.Stats()
	fs.statsStart = fs.f.Stats()
	fs.firedStart = me.Fired()
	fs.epochsStart = me.Epochs()
	fs.exchangedStart = me.Exchanged()
	if fs.l == nil {
		return
	}
	for i := 0; i < me.Shards(); i++ {
		et := fs.l.newEngineTrace()
		fs.traces = append(fs.traces, et)
		// Wiring between runs, while no shard goroutine is live. Each shard
		// engine gets its own trace, fed only from that shard's goroutine.
		// (The crossshard analyzer audits deterministic packages only, so
		// this access needs no allow directive here.)
		me.Shard(i).Engine().SetTracer(et.fire)
	}
	me.SetBarrierHook(fs.barrier)
}

// barrier times the epoch that just ended. The last event each shard fired
// in it has no later callback on that shard, so it is dropped untimed.
func (fs *fleetSys) barrier(uint64, sim.Time) {
	now := time.Now()
	fs.l.epochMS = append(fs.l.epochMS, float64(now.Sub(fs.lastBarrier))/float64(time.Millisecond))
	fs.lastBarrier = now
	for _, et := range fs.traces {
		et.drop()
	}
}

func (fs *fleetSys) step() error {
	target := fs.f.ME.Now() + fleetStep
	fs.lastBarrier = time.Now()
	fs.f.Run(target)
	if now := fs.f.ME.Now(); now != target {
		return fmt.Errorf("fleet clock at %v after a step to %v", now, target)
	}
	return nil
}

func (fs *fleetSys) digest() uint64 { return fs.f.Report().Fingerprint() }

func (fs *fleetSys) finish(out io.Writer) error {
	me := fs.f.ME
	st := fs.f.Stats()
	fmt.Fprintf(out, "fleet: %d shards, %d epochs, %d cross-shard events, %d transfers granted, %d fleet tickets\n",
		me.Shards(), me.Epochs()-fs.epochsStart, me.Exchanged()-fs.exchangedStart,
		st.TransfersGranted-fs.statsStart.TransfersGranted, st.TicketsOpened-fs.statsStart.TicketsOpened)
	if l := fs.l; l != nil {
		bs := fs.f.Bus.Stats()
		l.events = me.Fired() - fs.firedStart
		l.epochs = me.Epochs() - fs.epochsStart
		l.exchanged = me.Exchanged() - fs.exchangedStart
		l.busPublished = bs.Published - fs.busStart.Published
		l.busDeliveries = bs.Deliveries - fs.busStart.Deliveries
		l.fleetTransfers = st.TransfersGranted - fs.statsStart.TransfersGranted
		l.fleetTickets = st.TicketsOpened - fs.statsStart.TicketsOpened
	}
	return nil
}
