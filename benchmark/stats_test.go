package main

import (
	"math"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	// 1..200 ms: the median is 100.5, and p95 leaves exactly ten samples
	// beyond it.
	var samples []time.Duration
	for i := 200; i >= 1; i-- {
		samples = append(samples, time.Duration(i)*time.Millisecond)
	}
	s := summarize(samples)
	if s.N != 200 || s.P50 != 100.5 || s.TailPct != 95 {
		t.Errorf("summarize = %+v, want n=200 p50=100.5 tail=p95", s)
	}
	if want := 1 + 0.95*199; math.Abs(s.Tail-want) > 1e-9 {
		t.Errorf("p95 = %v, want %v", s.Tail, want)
	}
	// Too few samples for any tail: the median stands in, and says so.
	if s := summarize(samples[:50]); s.TailPct != 50 || s.Tail != s.P50 {
		t.Errorf("50 samples: %+v, want the median as the tail", s)
	}
	if got := percentileOf(samples, 90); math.Abs(got-(1+0.9*199)) > 1e-9 {
		t.Errorf("percentileOf p90 = %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("the percentile of no samples should be NaN")
	}
}

func TestUnionNS(t *testing.T) {
	for _, c := range []struct {
		name string
		ivs  []interval
		want int64
	}{
		{"none", nil, 0},
		{"disjoint", []interval{{0, 10}, {20, 30}}, 20},
		{"overlapping", []interval{{0, 10}, {5, 15}}, 15},
		{"nested", []interval{{0, 100}, {10, 20}, {30, 40}}, 100},
		{"touching", []interval{{0, 10}, {10, 20}}, 20},
		{"unsorted", []interval{{50, 60}, {0, 10}, {5, 55}}, 60},
		{"empty and inverted", []interval{{5, 5}, {9, 3}, {0, 2}}, 2},
	} {
		if got := unionNS(c.ivs); got != c.want {
			t.Errorf("%s: unionNS = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestPacerChargesFromSchedule pins the open-loop rule: an op that overruns
// delays the ones behind it, and their latency runs from when they were
// due, not from when the generator got round to them.
func TestPacerChargesFromSchedule(t *testing.T) {
	start := time.Now()
	p := newPacer(start, 100) // every 10 ms
	due, _ := p.wait(0)
	if !due.Equal(start) {
		t.Errorf("op 0 due %v after the start, want 0", due.Sub(start))
	}
	time.Sleep(35 * time.Millisecond) // op 0 stalls past the slots of ops 1 to 3
	for i := 1; i <= 3; i++ {
		due, late := p.wait(i)
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !due.Equal(want) {
			t.Errorf("op %d due %v after the start, want %v", i, due.Sub(start), want.Sub(start))
		}
		if late <= 0 {
			t.Errorf("op %d was issued after its slot but reports no lateness", i)
		}
	}
	// Op 5 is still in the future: the pacer sleeps until it is due.
	due, late := p.wait(5)
	if time.Now().Before(due) {
		t.Error("op 5 was released before it was due")
	}
	if late > 20*time.Millisecond {
		t.Errorf("op 5 released %v late", late)
	}
}

// TestQuartiles checks the spread rule against Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	vals := []float64{10, 3, 7, 1, 9, 4, 8, 2, 6, 5}
	q1, q3 := quartiles(vals) // Python gives [2.75, 5.5, 8.25]
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := spread(vals); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5}) // Python gives [1.5, 3.0, 4.5]
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles of five = %v, %v; want 1.5, 4.5", q1, q3)
	}
}
