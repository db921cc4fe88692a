// Command perfbench is the repository's benchmark. Each invocation builds
// one workload from a seed, drives it for a fixed number of closed-loop
// steps, checks that its outputs are correct, and prints one JSON line
// with either the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// system is one built instance of a workload.
type system interface {
	// begin is called once, immediately before the timed span.
	begin()
	// step runs one closed-loop step; an error is a failed post-step check.
	step() error
	// digest hashes the simulated outputs so far.
	digest() uint64
	// finish runs the end-of-run output checks, printing each to out, and
	// collects the per-layer counters. An error is a failed check.
	finish(out io.Writer) error
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	// stepsPerSecond sizes the timed span: --seconds s runs
	// stepsPerSecond·s steps, about s seconds on a 2-vCPU reference host.
	stepsPerSecond float64
	// checkpoint is the step after which the run's digest is compared
	// with a reference build's.
	checkpoint int
	// build sets the workload up: construction plus warm-up. l is nil on
	// an untraced build.
	build func(seed uint64, sc scale, l *layers) (system, error)
	// reference builds the system an untraced run's checkpoint digest must
	// equal, or is nil when the workload checks its outputs otherwise. A
	// traced run always compares with an untraced build of itself.
	reference func(seed uint64, sc scale) (system, error)
}

// scale holds the sizes tests shrink; the benchmark runs fullScale.
type scale struct {
	hallBurnIn   int // simulated days
	fleetRegions int
	fleetBurnIn  int // simulated days
	smallFabrics bool
}

var fullScale = scale{hallBurnIn: 30, fleetRegions: 96, fleetBurnIn: 1}

// workloads lists the benchmark's workloads by name.
var workloads = map[string]*workload{
	"hall-observed": hallObserved,
	"fabric-sweep":  fabricSweep,
	"fleet-sharded": fleetSharded,
}

// minSteps keeps step_ms_p99 valid: ten samples beyond the 99th percentile.
const minSteps = 100 * minTail

// setupSamples is how many times an untraced run sets its workload up;
// setup_s is their median.
const setupSamples = 5

type runOpts struct {
	seed       uint64
	steps      int
	checkpoint int
	traced     bool
	sc         scale
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`

	final uint64 // digest after the last step
}

func main() {
	name := flag.String("workload", "", "workload to run: hall-observed, fabric-sweep or fleet-sharded")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "length of the timed span on the reference host, in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 the end-to-end metrics")
	flag.Parse()
	w := workloads[*name]
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {hall-observed|fabric-sweep|fleet-sharded}, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	steps := int(math.Round(w.stepsPerSecond * float64(*seconds)))
	if steps < minSteps {
		steps = minSteps
	}
	res, err := run(w, runOpts{
		seed: *seed, steps: steps, checkpoint: min(w.checkpoint, steps),
		traced: *trace == 1, sc: fullScale,
	}, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up, drives the timed span, checks the outputs and
// measures. An error means the run could not be measured at all; failed
// checks are reported through result.Correct.
func run(w *workload, o runOpts, out io.Writer) (*result, error) {
	var l *layers
	if o.traced {
		l = &layers{}
	}
	res := &result{Correct: true, Metrics: metricSet{}}
	fail := func(format string, args ...any) {
		res.Correct = false
		fmt.Fprintf(out, "check FAILED: "+format+"\n", args...)
	}

	var setupS []float64
	sys, setup, err := timedBuild(func() (system, error) { return w.build(o.seed, o.sc, l) })
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	setupS = append(setupS, setup)

	sys.begin()
	stepMS := make([]float64, 0, o.steps)
	var checkpoint uint64
	var checkpointWall time.Duration
	before := sampleProc()
	for i := 0; i < o.steps; i++ {
		res.Attempted++
		start := time.Now()
		err := safeStep(sys)
		stepMS = append(stepMS, float64(time.Since(start))/float64(time.Millisecond))
		if err != nil {
			res.Failed++
			fail("step %d: %v", i, err)
			break
		}
		if i+1 == o.checkpoint {
			checkpointWall = time.Since(before.wall)
			checkpoint = sys.digest()
		}
	}
	after := sampleProc()
	fmt.Fprintf(out, "workload %s seed %d: ops %d, ops_failed %d\n", w.name, o.seed, res.Attempted, res.Failed)
	if res.Failed > 0 {
		return res, nil
	}
	res.final = sys.digest()
	fmt.Fprintf(out, "digest %016x after %d steps, %016x after %d\n", checkpoint, o.checkpoint, res.final, o.steps)
	if err := sys.finish(out); err != nil {
		fail("%v", err)
	}

	ref := w.reference
	if o.traced {
		ref = func(seed uint64, sc scale) (system, error) { return w.build(seed, sc, nil) }
	}
	if ref != nil {
		twin, _, err := timedBuild(func() (system, error) { return ref(o.seed, o.sc) })
		if err != nil {
			return nil, fmt.Errorf("%s: reference set-up: %w", w.name, err)
		}
		twin.begin()
		start := time.Now()
		for i := 0; i < o.checkpoint; i++ {
			if err := safeStep(twin); err != nil {
				return nil, fmt.Errorf("%s: reference step %d: %w", w.name, i, err)
			}
		}
		twinWall := time.Since(start)
		if d := twin.digest(); d != checkpoint {
			fail("digest %016x after %d steps differs from the reference build's %016x", checkpoint, o.checkpoint, d)
		} else {
			fmt.Fprintf(out, "check reference_digest: ok, %016x after %d steps\n", d, o.checkpoint)
		}
		if l != nil {
			l.overheadRatio = checkpointWall.Seconds() / twinWall.Seconds()
		}
	}

	if o.traced {
		l.gcCycles = after.gcCycles - before.gcCycles
		l.gcCPU = after.gcCPU - before.gcCPU
		l.report(res.Metrics)
		return res, nil
	}
	for len(setupS) < setupSamples {
		_, setup, err := timedBuild(func() (system, error) { return w.build(o.seed, o.sc, nil) })
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, setup)
	}
	p50, ok50 := percentile(stepMS, 0.50)
	p99, ok99 := percentile(stepMS, 0.99)
	if !ok50 || !ok99 {
		return nil, fmt.Errorf("%s: %d steps are too few for a p99 with %d samples beyond it", w.name, len(stepMS), minTail)
	}
	m := res.Metrics
	m.put("setup_s", "s", median(setupS))
	m.put("run_s", "s", after.wall.Sub(before.wall).Seconds())
	m.put("cpu_s", "s", (after.cpu - before.cpu).Seconds())
	m.put("peak_rss_mb", "MB", peakRSSMB())
	m.put("alloc_mb", "MB", float64(after.allocB-before.allocB)/(1<<20))
	m.put("step_ms_p50", "ms", p50)
	m.put("step_ms_p99", "ms", p99)
	return res, nil
}

// timedBuild collects garbage left by earlier builds, then times one
// set-up.
func timedBuild(build func() (system, error)) (system, float64, error) {
	runtime.GC()
	start := time.Now()
	sys, err := build()
	return sys, time.Since(start).Seconds(), err
}

// safeStep runs one step, reporting a panic as a failed step.
func safeStep(sys system) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return sys.step()
}
