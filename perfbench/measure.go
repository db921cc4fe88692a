package main

import (
	"fmt"
	"math"
	"regexp"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 needs at least 1000 samples, a p50 at least 20.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs and whether it is
// valid, that is whether at least minTail samples lie beyond it. xs is
// sorted in place.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1 // nearest rank, 0-based
	if rank < 0 || n-1-rank < minTail {
		return 0, false
	}
	slices.Sort(xs)
	return xs[rank], true
}

// median is the middle of xs (the mean of the two middle values for even
// counts), with no tail requirement. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// nameRE is the metric-name grammar: a letter or digit, then up to 63
// letters, digits, '_', '.' and '-'.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitRE is the unit grammar.
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects reported metrics, rejecting malformed or repeated
// names so a typo cannot silently produce a second series.
type metricSet map[string]metric

func (m metricSet) put(name, unit string, v float64) {
	if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
		panic(fmt.Sprintf("perfbench: malformed metric %q [%s]", name, unit))
	}
	if _, dup := m[name]; dup {
		panic(fmt.Sprintf("perfbench: metric %q reported twice", name))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// procSample is a reading of the process counters a timed span is
// bracketed with.
type procSample struct {
	wall     time.Time
	cpu      time.Duration // user + system
	allocB   uint64        // cumulative heap bytes allocated
	gcCycles uint64
	gcCPU    float64 // seconds
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	metrics.Read(runtimeSamples)
	return procSample{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB:   runtimeSamples[0].Value.Uint64(),
		gcCycles: runtimeSamples[1].Value.Uint64(),
		gcCPU:    runtimeSamples[2].Value.Float64(),
	}
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
