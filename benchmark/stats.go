package main

import (
	"math"
	"sort"
	"time"
)

// timing is the summary of one set of latency samples: the median, the tail
// percentile the sample count supports, and the count itself.
type timing struct {
	N       int
	P50     float64 // ms
	Tail    float64 // ms, the TailPct-th percentile
	TailPct float64
}

// tailSteps are the percentiles a timing may report as its tail, ascending.
var tailSteps = []float64{90, 95, 99, 99.9}

// supportedTail returns the highest percentile of tailSteps that leaves at
// least ten samples beyond it, or 0 when even p90 does not (n < 100).
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailSteps {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exactly 0.1
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; NaN on an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summarize turns latency samples into a timing: the median and the
// highest percentile the sample count supports (the median again when it
// supports none).
func summarize(samples []time.Duration) timing {
	ms := millisSorted(samples)
	t := timing{N: len(ms), P50: percentile(ms, 50), TailPct: supportedTail(len(ms))}
	if t.TailPct == 0 {
		t.TailPct = 50
	}
	t.Tail = percentile(ms, t.TailPct)
	return t
}

// percentileOf is the p-th percentile of latency samples in milliseconds.
func percentileOf(samples []time.Duration, p float64) float64 {
	return percentile(millisSorted(samples), p)
}

func millisSorted(samples []time.Duration) []float64 {
	ms := make([]float64, len(samples))
	for i, d := range samples {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return ms
}

// median returns the median of vals (NaN when empty) without reordering it.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// interval is a half-open time span [Start, End) in nanoseconds.
type interval struct{ Start, End int64 }

// unionNS returns the total length covered by the intervals, counting
// overlapping stretches once. It reorders ivs.
func unionNS(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	var total, curEnd int64
	started := false
	for _, iv := range ivs {
		if iv.End <= iv.Start {
			continue
		}
		if !started || iv.Start > curEnd {
			total += iv.End - iv.Start
			curEnd = iv.End
			started = true
			continue
		}
		if iv.End > curEnd {
			total += iv.End - curEnd
			curEnd = iv.End
		}
	}
	return total
}

// pacer issues the ticks of an open loop: op i is due at start + i/rate,
// whatever happened to the ops before it.
type pacer struct {
	start    time.Time
	interval time.Duration
}

func newPacer(start time.Time, perSecond float64) pacer {
	return pacer{start: start, interval: time.Duration(float64(time.Second) / perSecond)}
}

// wait sleeps until op i is due and returns its scheduled time and how late
// the generator woke up. Latency is charged from the scheduled time, so a
// stall in one op shows up in the ops queued behind it.
func (p pacer) wait(i int) (due time.Time, late time.Duration) {
	due = p.start.Add(time.Duration(i) * p.interval)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	late = time.Since(due)
	if late < 0 {
		late = 0
	}
	return due, late
}
