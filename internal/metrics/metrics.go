// Package metrics provides the measurement primitives the evaluation
// harness uses: latency percentile summaries, per-phase latency breakdowns
// (disk read / chunk processing / network / other, as in Figs. 4b and
// 13c-d), CDFs, and byte-traffic accumulators.
package metrics

import (
	"fmt"
	"sort"
	"time"
)

// LatencySample is one query's end-to-end latency with its phase breakdown.
type LatencySample struct {
	Total time.Duration
	Phase Breakdown
}

// Breakdown is per-phase time, following the paper's decomposition: disk
// read, chunk processing (decode + SQL evaluation), network (transfer +
// RPC overhead) and other.
type Breakdown struct {
	DiskRead   time.Duration
	Processing time.Duration
	Network    time.Duration
	Other      time.Duration
}

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.DiskRead += o.DiskRead
	b.Processing += o.Processing
	b.Network += o.Network
	b.Other += o.Other
}

// Total returns the sum of all phases.
func (b Breakdown) Total() time.Duration {
	return b.DiskRead + b.Processing + b.Network + b.Other
}

// Fractions returns each phase as a fraction of the total (zeros for an
// empty breakdown).
func (b Breakdown) Fractions() (disk, proc, net, other float64) {
	t := float64(b.Total())
	if t == 0 {
		return 0, 0, 0, 0
	}
	return float64(b.DiskRead) / t, float64(b.Processing) / t, float64(b.Network) / t, float64(b.Other) / t
}

func (b Breakdown) String() string {
	d, p, n, o := b.Fractions()
	return fmt.Sprintf("disk %.1f%% proc %.1f%% net %.1f%% other %.1f%% (total %v)",
		d*100, p*100, n*100, o*100, b.Total())
}

// LatencyRecorder collects samples and summarizes percentiles.
type LatencyRecorder struct {
	samples []LatencySample
}

// Record appends a sample.
func (r *LatencyRecorder) Record(s LatencySample) { r.samples = append(r.samples, s) }

// Count returns the number of samples.
func (r *LatencyRecorder) Count() int { return len(r.samples) }

// Percentile returns the p-th percentile latency (p in [0,100]) using
// nearest-rank on the sorted samples. It returns 0 with no samples.
func (r *LatencyRecorder) Percentile(p float64) time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(r.samples))
	for i, s := range r.samples {
		sorted[i] = s.Total
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	return percentileOf(sorted, p)
}

func percentileOf(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// P50 and P99 are the paper's two headline percentiles.
func (r *LatencyRecorder) P50() time.Duration { return r.Percentile(50) }

// P99 returns the 99th percentile latency.
func (r *LatencyRecorder) P99() time.Duration { return r.Percentile(99) }

// MeanBreakdown averages the phase breakdown across samples.
func (r *LatencyRecorder) MeanBreakdown() Breakdown {
	var sum Breakdown
	if len(r.samples) == 0 {
		return sum
	}
	for _, s := range r.samples {
		sum.Add(s.Phase)
	}
	n := time.Duration(len(r.samples))
	return Breakdown{
		DiskRead:   sum.DiskRead / n,
		Processing: sum.Processing / n,
		Network:    sum.Network / n,
		Other:      sum.Other / n,
	}
}

// Reduction returns the relative latency reduction of b versus a baseline:
// (baseline − b) / baseline. Positive means b is faster. This is the
// "latency reduction (%)" quantity of Figs. 13-15 (as a fraction).
func Reduction(baseline, b time.Duration) float64 {
	if baseline == 0 {
		return 0
	}
	return float64(baseline-b) / float64(baseline)
}

// OpCost is one entry of a query's cost ledger: where an operation of a
// query stage ran, how many bytes crossed the network, how many were read
// from disk and how many uncompressed bytes were decoded/scanned. The store
// counts these; a latency model (internal/simnet) turns them into time.
type OpCost struct {
	Node      int
	ReqBytes  uint64
	RespBytes uint64
	DiskBytes uint64
	ProcBytes uint64
	// Local marks operations executed on the coordinator itself (no
	// network traversal).
	Local bool
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value      float64
	Percentile float64 // 0..100
}

// CDF computes the empirical CDF of values at each sample point.
func CDF(values []float64) []CDFPoint {
	if len(values) == 0 {
		return nil
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	out := make([]CDFPoint, len(sorted))
	for i, v := range sorted {
		out[i] = CDFPoint{Value: v, Percentile: float64(i+1) / float64(len(sorted)) * 100}
	}
	return out
}

// Normalize scales values into [0, 1] by the maximum (Fig. 4c's
// "normalized column chunk size"). A zero max yields all zeros.
func Normalize(values []float64) []float64 {
	max := 0.0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	out := make([]float64, len(values))
	if max == 0 {
		return out
	}
	for i, v := range values {
		out[i] = v / max
	}
	return out
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}
