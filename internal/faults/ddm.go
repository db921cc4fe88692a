package faults

import (
	"repro/internal/topology"
)

// DDM is a digital-diagnostics reading from one end of a link, the noisy
// per-end observable real transceivers export (rx optical power, error
// counts). Diagnosis uses DDM to localize which end of a link to service;
// it is deliberately noisy so localization is imperfect, the way gray
// failures are "hard to pin point" (§1).
type DDM struct {
	RxDbm  float64 // received optical power; lower is worse
	Errors float64 // electrical/protocol error rate indicator, 0..1
}

// NominalRxDbm is the healthy received power level.
const NominalRxDbm = -2.0

// ReadDDM samples the diagnostics at end e of l. Contamination attenuates
// received power — strongly for dirt at the reading end's own connector,
// weakly for far-end dirt — while electrical causes (oxidation, firmware,
// dying module) show up in the error indicator at the afflicted end.
func (inj *Injector) ReadDDM(l *topology.Link, e End) DDM {
	st := &inj.states[l.ID]
	rng := inj.ddmRNG
	d := DDM{RxDbm: NominalRxDbm + 1.5*rng.NormFloat64()}
	if !inj.info[l.ID].needsXcvr {
		return d
	}
	local := st.Ends[e].Dirt
	far := st.Ends[e.Opposite()].Dirt
	d.RxDbm -= 4*local + 2*far

	if st.Cause != None && !st.Masked {
		switch st.Cause {
		case Oxidation, FirmwareHang, XcvrDead:
			if st.CauseEnd == e {
				d.Errors = clamp01(0.5 + 0.3*rng.NormFloat64())
			} else {
				d.Errors = clamp01(0.1 + 0.1*rng.NormFloat64())
			}
		case CableDamaged:
			d.RxDbm -= 4 + 2*rng.Float64()
		case SwitchPort:
			if st.CauseEnd == e {
				d.Errors = clamp01(0.4 + 0.3*rng.NormFloat64())
			}
		}
	}
	// Background noise floor on the error indicator.
	if d.Errors == 0 {
		d.Errors = clamp01(0.02 * rng.Float64())
	}
	return d
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
