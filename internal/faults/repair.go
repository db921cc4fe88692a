package faults

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// BeginRepair marks the link as physically under maintenance: it is forced
// observably down (unplugging a transceiver takes the link down regardless
// of why it was being serviced) and flapping is suspended. Call
// FinishRepair when the physical action completes.
func (inj *Injector) BeginRepair(l *topology.Link) {
	inj.setInRepair(l, true)
}

// AbortRepair releases the link without applying any action (robot failure,
// human abort). The underlying fault state is unchanged.
func (inj *Injector) AbortRepair(l *topology.Link) {
	inj.setInRepair(l, false)
}

// FinishRepair adjudicates a completed physical action against the hidden
// ground truth and releases the link. The caller (robot or technician
// model) is responsible for having spent the appropriate virtual time
// between BeginRepair and FinishRepair.
func (inj *Injector) FinishRepair(l *topology.Link, action Action, end End) RepairResult {
	st := &inj.states[l.ID]
	inj.stats.RepairsAttempted++
	res := RepairResult{Action: action, End: end}

	inj.applyPhysicalSideEffects(l, action, end)

	switch {
	case st.Cause == None:
		// Proactive or false-positive repair: nothing to fix, but the
		// action refreshes the wear clocks of whatever it renewed.
		res.Fixed = true
		res.Note = "no fault present"
		inj.refreshClocks(l, action, end)
		inj.stats.ProactiveRefreshes++

	case action == Reseat && st.Cause == Contamination:
		// The paper's repeat-ticket mechanism: a reseat can mask dirt.
		if endLocalMatches(st, action, end) && inj.repairRNG.Bernoulli(inj.cfg.ReseatMaskProb) {
			res.Fixed = true
			res.Masked = true
			res.Cleared = Contamination
			st.Masked = true
			inj.scheduleMaskedRecurrence(l)
		} else {
			res.Note = "contamination persists"
		}

	default:
		p := inj.cfg.FixProb[action][st.Cause]
		if p > 0 && !endLocalMatches(st, action, end) {
			p = 0
			res.Note = "wrong end"
		}
		if p > 0 && inj.repairRNG.Bernoulli(p) {
			res.Fixed = true
			res.Cleared = st.Cause
			inj.clearCause(l, action, end)
		} else if res.Note == "" {
			res.Note = fmt.Sprintf("%s does not address %s", action, st.Cause)
		}
	}

	if res.Fixed && !res.Masked {
		inj.setHealth(l, Healthy)
		inj.stats.RepairsSucceeded++
	} else if res.Masked {
		inj.setHealth(l, Healthy) // symptom suppressed for now
		inj.stats.RepairsSucceeded++
	}
	inj.setInRepair(l, false)
	return res
}

// endLocalMatches reports whether the action was applied to the end that
// carries the cause, for end-local causes. Cable and switch-port work is
// judged by its own rules: cable replacement is end-agnostic, switch-port
// replacement must target the switch end carrying the fault.
func endLocalMatches(st *LinkState, action Action, end End) bool {
	switch action {
	case ReplaceCable:
		return true
	default:
		return end == st.CauseEnd
	}
}

// clearCause removes the active cause and performs the hardware renewal the
// action implies (new transceiver, new cable), resetting onset clocks.
func (inj *Injector) clearCause(l *topology.Link, action Action, end End) {
	st := &inj.states[l.ID]
	st.Cause = None
	st.Masked = false
	inj.recurEvents[l.ID].Cancel()
	inj.recurEvents[l.ID] = sim.Handle{}
	switch action {
	case Clean:
		inj.cleanEnd(st, end)
	case ReplaceXcvr:
		end.Port(l).Xcvr = topology.NewTransceiver(end.Port(l).Xcvr.Model)
		st.Ends[end].Dirt = 0
	case ReplaceCable:
		*l.Cable = topology.Cable{
			Class:   l.Cable.Class,
			Cores:   l.Cable.Cores,
			APC:     l.Cable.APC,
			LengthM: l.Cable.LengthM,
			// Tray path is unchanged: the new cable follows the old run.
			TraySegments: l.Cable.TraySegments,
		}
		st.Ends[EndA].Dirt = 0
		st.Ends[EndB].Dirt = 0
	}
	inj.refreshClocks(l, action, end)
}

// cleanEnd zeroes dirt at the chosen end, with a small chance of leaving
// residue (imperfect cleaning / recontamination at reassembly).
func (inj *Injector) cleanEnd(st *LinkState, end End) {
	if inj.repairRNG.Bernoulli(inj.cfg.CleanRecontaminate) {
		st.Ends[end].Dirt = 0.2
	} else {
		st.Ends[end].Dirt = 0
	}
}

// refreshClocks re-samples the onset clocks for the causes whose underlying
// wear the action renewed — the mechanism that makes proactive maintenance
// reduce future failures (§4 "Predictive maintenance").
func (inj *Injector) refreshClocks(l *topology.Link, action Action, end End) {
	var renewed []Cause
	switch action {
	case Reseat:
		renewed = []Cause{Oxidation, FirmwareHang}
	case Clean:
		renewed = []Cause{Contamination, Oxidation, FirmwareHang}
		inj.cleanEnd(&inj.states[l.ID], end)
	case ReplaceXcvr:
		renewed = []Cause{Oxidation, FirmwareHang, XcvrDead}
	case ReplaceCable:
		renewed = []Cause{Contamination, CableDamaged}
	case ReplaceSwitchPort:
		renewed = []Cause{SwitchPort}
	}
	for _, c := range renewed {
		if ev, ok := inj.onsetEvents[l.ID][c]; ok {
			ev.Cancel()
			delete(inj.onsetEvents[l.ID], c)
		}
		if c.applies(inj.info[l.ID]) && inj.cfg.AnnualRate[c] > 0 {
			inj.scheduleOnset(l, c)
		}
	}
}

// scheduleMaskedRecurrence queues the reappearance of a masked
// contamination fault.
func (inj *Injector) scheduleMaskedRecurrence(l *topology.Link) {
	hours := inj.cfg.MaskedRecurrence.Sample(inj.repairRNG)
	at := inj.eng.Now() + sim.Time(hours*float64(sim.Hour))
	inj.recurEvents[l.ID] = inj.eng.Schedule(at, "masked-recurrence", func() {
		inj.recurEvents[l.ID] = sim.Handle{}
		st := &inj.states[l.ID]
		if st.Cause != Contamination || !st.Masked || st.InRepair {
			return
		}
		st.Masked = false
		inj.stats.MaskedRecurrences++
		if inj.manifestRNG.Bernoulli(inj.cfg.DownManifest[Contamination]) {
			inj.setHealth(l, Down)
		} else {
			inj.setHealth(l, Flapping)
			inj.scheduleFlap(l)
		}
	})
}

// applyPhysicalSideEffects models collateral dirt transfer: unplugging and
// replugging separable fiber can introduce contamination if done without a
// cleaning step (why assembly-time cleaning is specified, §3.2).
func (inj *Injector) applyPhysicalSideEffects(l *topology.Link, action Action, end End) {
	if action != Reseat || !l.HasSeparableFiber() {
		return
	}
	st := &inj.states[l.ID]
	if st.Ends[end].Dirt == 0 && inj.repairRNG.Bernoulli(0.02) {
		st.Ends[end].Dirt = 0.3
	}
}

// InduceFault forces cause c to manifest on l immediately (test and
// scenario hook). It panics if the link already has an active cause.
func (inj *Injector) InduceFault(l *topology.Link, c Cause) {
	st := &inj.states[l.ID]
	if st.Cause != None {
		panic(fmt.Sprintf("faults: induce %v on %s: already has %v", c, l.Name(), st.Cause))
	}
	if ev, ok := inj.onsetEvents[l.ID][c]; ok {
		ev.Cancel()
		delete(inj.onsetEvents[l.ID], c)
	}
	inj.beginFault(l, c)
}

// ClearFault forcibly removes any active cause and restores the link to
// healthy, resetting the cleared cause's onset clock. It is a scenario and
// benchmark hook — production flows go through BeginRepair/FinishRepair.
func (inj *Injector) ClearFault(l *topology.Link) {
	st := &inj.states[l.ID]
	if st.InRepair {
		inj.setInRepair(l, false)
	}
	if st.Cause == None {
		if st.Health != Healthy {
			inj.setHealth(l, Healthy)
		}
		return
	}
	cleared := st.Cause
	st.Cause = None
	st.Masked = false
	st.Ends[EndA].Dirt = 0
	st.Ends[EndB].Dirt = 0
	inj.recurEvents[l.ID].Cancel()
	inj.recurEvents[l.ID] = sim.Handle{}
	if ev, ok := inj.onsetEvents[l.ID][cleared]; ok {
		ev.Cancel()
		delete(inj.onsetEvents[l.ID], cleared)
	}
	if cleared.applies(inj.info[l.ID]) && inj.cfg.AnnualRate[cleared] > 0 {
		inj.scheduleOnset(l, cleared)
	}
	inj.setHealth(l, Healthy)
}
