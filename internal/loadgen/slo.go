package loadgen

import (
	"fmt"
	"time"
)

// SLO is one op kind's service-level objective: latency ceilings at the
// three tracked percentiles plus an availability floor. A zero latency
// field means "not bounded"; Availability 0 means "not bounded".
type SLO struct {
	Op           OpKind
	P50          time.Duration
	P99          time.Duration
	P999         time.Duration
	Availability float64 // fraction of attempted ops that must succeed
}

// DefaultSLOs are deliberately loose wall-clock targets for the simnet
// harness — they catch an order-of-magnitude regression or an availability
// hole, not a few-percent drift (the repository benchmark's object_io_small
// workload tracks drift). Tighten per deployment via Config.SLOs.
func DefaultSLOs() []SLO {
	return []SLO{
		{Op: OpGet, P50: 50 * time.Millisecond, P99: 250 * time.Millisecond, P999: time.Second, Availability: 0.999},
		{Op: OpPut, P50: 100 * time.Millisecond, P99: 500 * time.Millisecond, P999: 2 * time.Second, Availability: 0.999},
		{Op: OpQuery, P50: 100 * time.Millisecond, P99: 500 * time.Millisecond, P999: 2 * time.Second, Availability: 0.999},
	}
}

// Verdict is one SLO's evaluation over a run.
type Verdict struct {
	Op   string `json:"op"`
	Pass bool   `json:"pass"`
	// Violations lists each bound the run broke, human-readable.
	Violations []string `json:"violations,omitempty"`
	// Observed values, microseconds / fraction.
	P50Us        float64 `json:"p50_us"`
	P99Us        float64 `json:"p99_us"`
	P999Us       float64 `json:"p999_us"`
	Availability float64 `json:"availability"`
}

// evaluateSLOs renders verdicts for every configured SLO whose op kind saw
// traffic.
func evaluateSLOs(stats *RunStats, slos []SLO) []Verdict {
	var out []Verdict
	for _, slo := range slos {
		ops := stats.PerOp[slo.Op.String()]
		if ops == nil || ops.Attempted == 0 {
			continue
		}
		v := Verdict{
			Op:           slo.Op.String(),
			Pass:         true,
			P50Us:        ops.P50Us,
			P99Us:        ops.P99Us,
			P999Us:       ops.P999Us,
			Availability: ops.Availability(),
		}
		check := func(name string, gotUs float64, bound time.Duration) {
			if bound <= 0 {
				return
			}
			boundUs := float64(bound) / float64(time.Microsecond)
			if gotUs > boundUs {
				v.Pass = false
				v.Violations = append(v.Violations,
					fmt.Sprintf("%s %s %.0fµs > %.0fµs", v.Op, name, gotUs, boundUs))
			}
		}
		check("p50", v.P50Us, slo.P50)
		check("p99", v.P99Us, slo.P99)
		check("p99.9", v.P999Us, slo.P999)
		if slo.Availability > 0 && v.Availability < slo.Availability {
			v.Pass = false
			v.Violations = append(v.Violations,
				fmt.Sprintf("%s availability %.4f < %.4f", v.Op, v.Availability, slo.Availability))
		}
		out = append(out, v)
	}
	return out
}

// AllPass reports whether every verdict passed.
func AllPass(vs []Verdict) bool {
	for _, v := range vs {
		if !v.Pass {
			return false
		}
	}
	return true
}
