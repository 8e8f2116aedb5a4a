package metrics

import (
	"math"
	"testing"
	"time"
)

func TestPercentiles(t *testing.T) {
	var r LatencyRecorder
	if r.P50() != 0 || r.P99() != 0 {
		t.Fatal("empty recorder must report zero")
	}
	for i := 1; i <= 100; i++ {
		r.Record(LatencySample{Total: time.Duration(i) * time.Millisecond})
	}
	if r.Count() != 100 {
		t.Fatalf("Count = %d", r.Count())
	}
	if got := r.P50(); got != 50*time.Millisecond {
		t.Fatalf("P50 = %v", got)
	}
	if got := r.P99(); got != 99*time.Millisecond {
		t.Fatalf("P99 = %v", got)
	}
	if got := r.Percentile(0); got != 1*time.Millisecond {
		t.Fatalf("P0 = %v", got)
	}
	if got := r.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("P100 = %v", got)
	}
}

func TestBreakdown(t *testing.T) {
	b := Breakdown{DiskRead: 10, Processing: 20, Network: 50, Other: 20}
	if b.Total() != 100 {
		t.Fatalf("Total = %v", b.Total())
	}
	d, p, n, o := b.Fractions()
	if d != 0.1 || p != 0.2 || n != 0.5 || o != 0.2 {
		t.Fatalf("Fractions = %v %v %v %v", d, p, n, o)
	}
	var zero Breakdown
	d, p, n, o = zero.Fractions()
	if d != 0 || p != 0 || n != 0 || o != 0 {
		t.Fatal("zero breakdown must yield zero fractions")
	}
	b2 := Breakdown{DiskRead: 5}
	b2.Add(b)
	if b2.DiskRead != 15 || b2.Network != 50 {
		t.Fatal("Add wrong")
	}
	if b.String() == "" {
		t.Fatal("String must produce output")
	}
}

func TestMeanBreakdown(t *testing.T) {
	var r LatencyRecorder
	r.Record(LatencySample{Phase: Breakdown{DiskRead: 10, Network: 30}})
	r.Record(LatencySample{Phase: Breakdown{DiskRead: 20, Network: 10}})
	mb := r.MeanBreakdown()
	if mb.DiskRead != 15 || mb.Network != 20 {
		t.Fatalf("MeanBreakdown = %+v", mb)
	}
	var empty LatencyRecorder
	if empty.MeanBreakdown().Total() != 0 {
		t.Fatal("empty mean breakdown must be zero")
	}
}

func TestReduction(t *testing.T) {
	if Reduction(100, 36) != 0.64 {
		t.Fatalf("Reduction = %v", Reduction(100, 36))
	}
	if Reduction(0, 10) != 0 {
		t.Fatal("zero baseline must yield 0")
	}
	if Reduction(100, 150) != -0.5 {
		t.Fatal("slower system must yield negative reduction")
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2})
	if len(pts) != 3 {
		t.Fatal("CDF must have one point per value")
	}
	if pts[0].Value != 1 || pts[2].Value != 3 {
		t.Fatal("CDF must be sorted")
	}
	if pts[2].Percentile != 100 {
		t.Fatalf("last percentile = %v", pts[2].Percentile)
	}
	if CDF(nil) != nil {
		t.Fatal("empty CDF must be nil")
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{1, 2, 4})
	if out[0] != 0.25 || out[2] != 1 {
		t.Fatalf("Normalize = %v", out)
	}
	out = Normalize([]float64{0, 0})
	if out[0] != 0 || out[1] != 0 {
		t.Fatal("all-zero input must normalize to zeros")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean must be 0")
	}
	if m := Mean([]float64{1, 2, 3}); math.Abs(m-2) > 1e-12 {
		t.Fatalf("Mean = %v", m)
	}
}
