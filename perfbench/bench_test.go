package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so percentile must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{0, 0.5, false, 0},
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{1001, 0.99, true, 991},
		{2000, 0.99, true, 1980},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("percentile(%d samples, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, name := range []string{"run_s", "sim.event_us_p99", "go.gc-cpu", "9lives", strings.Repeat("a", 64)} {
		if !nameRE.MatchString(name) {
			t.Errorf("%q rejected", name)
		}
	}
	for _, name := range []string{"", "_run", ".run", "run s", "run/s", "rün", strings.Repeat("a", 65)} {
		if nameRE.MatchString(name) {
			t.Errorf("%q accepted", name)
		}
	}
	for _, bad := range []func(metricSet){
		func(m metricSet) { m.put("bad name", "s", 1) },
		func(m metricSet) { m.put("ok", "bad unit!", 1) },
		func(m metricSet) { m.put("twice", "s", 1); m.put("twice", "s", 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("malformed or repeated metric accepted")
				}
			}()
			bad(metricSet{})
		}()
	}
}

// spec is the part of BENCHMARK.json the program must agree with.
type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecMatchesProgram(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	slices.Sort(have)
	if !slices.Equal(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, have)
	}
	for _, m := range s.EndToEnd {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v malformed", m)
		}
	}
	layerSet := metricSet{}
	(&layers{}).report(layerSet)
	for _, m := range s.PerLayer {
		got, ok := layerSet[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("per-layer metric %s [%s] in BENCHMARK.json, program reports %v", m.Name, m.Unit, got)
		}
		delete(layerSet, m.Name)
	}
	for name := range layerSet {
		t.Errorf("per-layer metric %s missing from BENCHMARK.json", name)
	}
}

var smallScale = scale{hallBurnIn: 2, fleetRegions: 4, fleetBurnIn: 1, smallFabrics: true}

// TestSmoke runs every workload untraced and traced at small scale: every
// output check must pass, every metric must be reported, and tracing must
// not change the digest.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload")
	}
	s := loadSpec(t)
	for _, w := range s.Workloads {
		w := workloads[w.Name]
		t.Run(w.name, func(t *testing.T) {
			var digests [2]uint64
			for traced := 0; traced < 2; traced++ {
				var out bytes.Buffer
				res, err := run(w, runOpts{seed: 5, steps: minSteps, checkpoint: w.checkpoint, traced: traced == 1, sc: smallScale}, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != minSteps {
					t.Fatalf("traced=%d: correct=%v attempted=%d failed=%d\n%s", traced, res.Correct, res.Attempted, res.Failed, out.String())
				}
				if !strings.Contains(out.String(), "check ") {
					t.Errorf("traced=%d printed no checks:\n%s", traced, out.String())
				}
				if w.name == "hall-observed" {
					if !strings.Contains(out.String(), "check ledger_availability") {
						t.Errorf("traced=%d: no ledger cross-check printed", traced)
					}
				}
				want := []string{}
				if traced == 0 {
					for _, m := range s.EndToEnd {
						want = append(want, m.Name)
					}
				} else {
					for _, m := range s.PerLayer {
						want = append(want, m.Name)
					}
				}
				for _, name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("traced=%d: metric %s not reported", traced, name)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%d: %d metrics reported, BENCHMARK.json lists %d", traced, len(res.Metrics), len(want))
				}
				digests[traced] = res.final
			}
			if digests[0] != digests[1] {
				t.Errorf("untraced digest %016x, traced %016x", digests[0], digests[1])
			}
		})
	}
}
