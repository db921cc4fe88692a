package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/ticket"
	"repro/internal/topology"
)

// Modules whose events get a self-time metric. An event's self time is the
// host time from its tracer callback to the next callback on the same
// engine (or the end of the step), so it includes everything the event's
// handler calls synchronously: a fault-onset event carries the telemetry,
// bus and pipeline work it triggers.
const (
	modCore = iota
	modFaults
	modTelemetry
	modRobot
	modWorkforce
	modFleet
	modOther
	nModules
)

var moduleNames = [nModules]string{"core", "faults", "telemetry", "robot", "workforce", "fleet", "other"}

// eventModule maps an event name to the module that schedules it. Telemetry
// schedules no events of its own (it runs inside fault listeners), so no
// name maps to it. Names not listed count as "other".
var eventModule = map[string]int{
	"await-supervision": modCore, "dispatch": modCore, "drain-settle": modCore,
	"l1-operator-arrives": modCore, "park-backstop": modCore, "tech-stolen-retry": modCore,
	"unit-stolen-retry": modCore, "util-deferred": modCore, "chronic-retry": modCore,
	"escalate-human": modCore, "ladder-escalate": modCore, "stockout-retry": modCore,
	"predict-cycle": modCore, "predict-train": modCore, "act-watchdog": modCore,
	"watchdog-retry": modCore,

	"fault-onset": modFaults, "flap": modFaults, "precursor-flap": modFaults,
	"precursor-start": modFaults, "masked-recurrence": modFaults,

	"robot-approach": modRobot, "robot-clean": modRobot, "robot-detach": modRobot,
	"robot-identify": modRobot, "robot-navigate": modRobot, "robot-reassemble": modRobot,
	"robot-reseat": modRobot, "robot-swap": modRobot, "robot-verify": modRobot,
	"robot-charged": modRobot, "robot-repaired": modRobot,

	"tech-dispatch": modWorkforce, "tech-walk": modWorkforce, "tech-work": modWorkforce,

	"lend-ack": modFleet, "lend-request": modFleet, "region-summary": modFleet,
	"summary-to-hub": modFleet, "unit-arrives": modFleet, "overlay-sample": modFleet,
	"trunk-notice": modFleet, "trunk-repair": modFleet,
}

// engineTrace times the events of one engine from its tracer callbacks.
// Each engine gets its own, so shard engines running on different
// goroutines never share one.
type engineTrace struct {
	start time.Time // when the event in flight fired; zero when none
	mod   int
	durUS []float64
	self  [nModules]time.Duration
}

func (et *engineTrace) fire(_ sim.Time, name string) {
	now := time.Now()
	et.end(now)
	et.start = now
	if m, ok := eventModule[name]; ok {
		et.mod = m
	} else {
		et.mod = modOther
	}
}

// end closes the event in flight at now.
func (et *engineTrace) end(now time.Time) {
	if et.start.IsZero() {
		return
	}
	d := now.Sub(et.start)
	et.durUS = append(et.durUS, float64(d)/float64(time.Microsecond))
	et.self[et.mod] += d
	et.start = time.Time{}
}

// drop forgets the event in flight without timing it: on a shard engine
// the end of an epoch's last event is not observable from outside.
func (et *engineTrace) drop() { et.start = time.Time{} }

// timedPolicy delegates to the built-in ladder policy and times each call,
// so the Plan stage's cost is measured without changing its decisions.
type timedPolicy struct {
	inner  core.Policy
	calls  int
	decide time.Duration
	impact time.Duration
}

func (p *timedPolicy) Decide(t *ticket.Ticket, stage int) core.Decision {
	start := time.Now()
	d := p.inner.Decide(t, stage)
	p.decide += time.Since(start)
	p.calls++
	return d
}

func (p *timedPolicy) ImpactSet(target *topology.Link, port *topology.Port) []topology.LinkID {
	start := time.Now()
	ids := p.inner.ImpactSet(target, port)
	p.impact += time.Since(start)
	return ids
}

// layers is what a traced run measures, layer by layer. Fields a workload
// does not exercise stay zero and are reported as zero.
type layers struct {
	engines        []*engineTrace
	events         uint64 // fired in the timed span
	epochs         uint64
	exchanged      uint64
	epochMS        []float64
	busPublished   uint64
	busDeliveries  uint64
	policy         *timedPolicy
	spans          [nSpans]time.Duration
	drainEvalMS    []float64
	cacheEpochs    uint64
	frBytes        uint64
	frFrames       uint64
	frEvents       uint64
	feedSyncMS     []float64
	cpPublished    uint64
	cpDelivered    uint64
	cpDropped      uint64
	cpCoalesced    uint64
	fleetTransfers int
	fleetTickets   int
	gcCycles       uint64
	gcCPU          float64
	overheadRatio  float64
}

// newEngineTrace registers a trace for one engine and returns it.
func (l *layers) newEngineTrace() *engineTrace {
	et := &engineTrace{}
	l.engines = append(l.engines, et)
	return et
}

// span names a timed call into a layer's public functions.
type span int

const (
	spanColdFill span = iota
	spanEvaluate
	spanDrain
	spanUndrain
	spanTake
	spanRecWrite
	spanRecClose
	spanScenarioBuild
	spanTopologyBuild
	spanFleetBuild
	nSpans
)

// add adds the time since start to span s; on a nil layers (an untraced
// run) it does nothing.
func (l *layers) add(s span, start time.Time) {
	if l != nil {
		l.spans[s] += time.Since(start)
	}
}

// report renders every per-layer metric.
func (l *layers) report(m metricSet) {
	var durs []float64
	var self [nModules]time.Duration
	for _, et := range l.engines {
		durs = append(durs, et.durUS...)
		for i, d := range et.self {
			self[i] += d
		}
	}
	m.put("sim.events", "count", float64(l.events))
	m.put("sim.events_timed", "count", float64(len(durs)))
	m.put("sim.event_us_p50", "us", validOrZero(percentile(durs, 0.50)))
	m.put("sim.event_us_p99", "us", validOrZero(percentile(durs, 0.99)))
	m.put("sim.epochs", "count", float64(l.epochs))
	m.put("sim.exchanged", "count", float64(l.exchanged))
	m.put("sim.epoch_ms_p50", "ms", validOrZero(percentile(l.epochMS, 0.50)))
	m.put("sim.epoch_ms_p99", "ms", validOrZero(percentile(l.epochMS, 0.99)))
	for i := 0; i < modOther; i++ {
		m.put(moduleNames[i]+".self_s", "s", self[i].Seconds())
	}
	m.put("bus.published", "count", float64(l.busPublished))
	m.put("bus.deliveries", "count", float64(l.busDeliveries))
	var p timedPolicy
	if l.policy != nil {
		p = *l.policy
	}
	m.put("core.decide_calls", "count", float64(p.calls))
	m.put("core.decide_s", "s", p.decide.Seconds())
	m.put("core.impactset_s", "s", p.impact.Seconds())
	m.put("routing.cold_fill_s", "s", l.spans[spanColdFill].Seconds())
	m.put("routing.evaluate_s", "s", l.spans[spanEvaluate].Seconds())
	m.put("routing.drain_s", "s", l.spans[spanDrain].Seconds())
	m.put("routing.undrain_s", "s", l.spans[spanUndrain].Seconds())
	m.put("routing.drain_eval_ms_p50", "ms", validOrZero(percentile(l.drainEvalMS, 0.50)))
	m.put("routing.cache_epochs", "count", float64(l.cacheEpochs))
	m.put("flightrec.bytes", "bytes", float64(l.frBytes))
	m.put("flightrec.frames", "count", float64(l.frFrames))
	perEvent := 0.0
	if l.frEvents > 0 {
		perEvent = float64(l.frBytes) / float64(l.frEvents)
	}
	m.put("flightrec.bytes_per_event", "bytes", perEvent)
	m.put("flightrec.write_s", "s", l.spans[spanRecWrite].Seconds())
	m.put("flightrec.close_s", "s", l.spans[spanRecClose].Seconds())
	var syncS float64
	for _, ms := range l.feedSyncMS {
		syncS += ms / 1000
	}
	m.put("selfmaint.feed_sync_s", "s", syncS)
	m.put("selfmaint.feed_sync_ms_p99", "ms", validOrZero(percentile(l.feedSyncMS, 0.99)))
	m.put("controlplane.take_s", "s", l.spans[spanTake].Seconds())
	m.put("controlplane.published", "count", float64(l.cpPublished))
	m.put("controlplane.delivered", "count", float64(l.cpDelivered))
	m.put("controlplane.dropped", "count", float64(l.cpDropped))
	m.put("controlplane.coalesced", "count", float64(l.cpCoalesced))
	m.put("scenario.build_s", "s", l.spans[spanScenarioBuild].Seconds())
	m.put("topology.build_s", "s", l.spans[spanTopologyBuild].Seconds())
	m.put("fleet.build_s", "s", l.spans[spanFleetBuild].Seconds())
	m.put("fleet.transfers", "count", float64(l.fleetTransfers))
	m.put("fleet.tickets", "count", float64(l.fleetTickets))
	m.put("go.gc_cycles", "count", float64(l.gcCycles))
	m.put("go.gc_cpu_s", "s", l.gcCPU)
	m.put("trace.overhead_ratio", "ratio", l.overheadRatio)
}

func validOrZero(v float64, ok bool) float64 {
	if !ok {
		return 0
	}
	return v
}
