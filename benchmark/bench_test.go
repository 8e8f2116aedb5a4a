package main

import (
	"context"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/sql"
)

// smokeSizes keeps the smoke test inside a few seconds: a 3-row-group
// lineitem of ≈200 KB and eight small objects of ≈10 KB.
var smokeSizes = sizes{rowGroups: 3, rowsPerGroup: 2000, smallRows: 300, smallObjects: 8}

func smokeConfig() runConfig {
	return runConfig{
		seed:   7,
		window: 300 * time.Millisecond,
		warmup: 50 * time.Millisecond,
		setups: 2,
		sz:     smokeSizes,
		kernel: time.Millisecond,
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts that a run reported exactly the metrics of spec, each
// finite, with the unit the spec gives.
func checkMetrics(t *testing.T, res result, spec []metricSpec, nonZero bool) {
	t.Helper()
	if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d, want a clean run", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(spec) {
		t.Errorf("reported %d metrics, the list has %d", len(res.Metrics), len(spec))
	}
	for _, s := range spec {
		m, ok := res.Metrics[s.name]
		switch {
		case !ok:
			t.Errorf("%s: not reported", s.name)
		case m.Unit != s.unit:
			t.Errorf("%s: unit %q, want %q", s.name, m.Unit, s.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %v is not finite", s.name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("%s: %v, an end-to-end metric is never zero", s.name, m.Value)
		}
		if !nameRE.MatchString(s.name) {
			t.Errorf("%s: not a valid metric name", s.name)
		}
	}
}

// TestSmoke runs every workload briefly on down-scaled objects, end to end
// and traced, and checks that each reports every metric of BENCHMARK.json
// exactly once with no failed op.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for _, def := range workloads {
		def := def
		t.Run(def.name, func(t *testing.T) {
			res, err := runEndToEnd(ctx, def, smokeConfig(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEndSpec, true)

			cfg := smokeConfig()
			cfg.traceTo = t.TempDir() + "/spans.json"
			res, err = runTraced(ctx, def, cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayerSpec, false)
			if st, err := os.Stat(cfg.traceTo); err != nil || st.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestBenchmarkJSON holds the file at the root of the repository to the
// tables in spec.go and to the limits of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != benchmarkJSON() {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -spec`; regenerate it")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is invalid or used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		unique(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, at most 200", w.name, len(w.why))
		}
	}
	setup := false
	for _, m := range endToEndSpec {
		unique(m.name)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.name, m.bound)
		}
		setup = setup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(perLayerSpec); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, m := range append(append([]metricSpec(nil), endToEndSpec...), perLayerSpec...) {
		if m.bound == 0 {
			unique(m.name)
		}
		if !unitRE.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
			t.Errorf("%s: unit %q or direction %q is invalid", m.name, m.unit, m.better)
		}
	}
}

// TestCheckerCountsTampering is the checker's self-test: a Get payload with
// one byte flipped and a query result with one aggregate perturbed, both
// altered after the store returned them, must each count as a failed op.
func TestCheckerCountsTampering(t *testing.T) {
	ctx := context.Background()
	obj, err := lineitem(3, smokeSizes)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if _, err := putObject(ctx, e.store, "lineitem", obj); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT SUM(l_extendedprice), COUNT(l_orderkey) FROM lineitem WHERE l_quantity < 10"
	refs, err := referenceResults(obj, []string{q})
	if err != nil {
		t.Fatal(err)
	}

	var tl tally
	got, err := e.store.GetContext(ctx, "lineitem", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.store.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !tl.record(verifyGet(got, obj)) || !tl.record(verifyQuery(res, refs[q])) {
		t.Fatalf("untouched responses failed verification: %v", tl.first)
	}

	got[len(got)/2] ^= 0x01
	if tl.record(verifyGet(got, obj)) {
		t.Error("a Get payload with one byte flipped passed verification")
	}
	res.AggValues[0] = sql.FloatLit(math.Nextafter(res.AggValues[0].F, math.Inf(1)))
	if tl.record(verifyQuery(res, refs[q])) {
		t.Error("a query result with one aggregate perturbed by one ulp passed verification")
	}
	res.AggValues[0] = refs[q].aggs[0]
	res.Rows++
	if tl.record(verifyQuery(res, refs[q])) {
		t.Error("a query result with a wrong row count passed verification")
	}
	if a, f := tl.attempted.Load(), tl.failed.Load(); a != 5 || f != 3 {
		t.Errorf("tally is %d attempted, %d failed; want 5 and 3", a, f)
	}
}

// TestSmallObjectWindow pins old-or-new-never-hybrid: a read may return any
// version between the one committed when it started and the one begun when
// it ended, and nothing else.
func TestSmallObjectWindow(t *testing.T) {
	o := &smallObject{contents: [][]byte{[]byte("v0"), []byte("v1"), []byte("v2")}}
	if err := verifyGet([]byte("v1"), o.admissible(1, 2)...); err != nil {
		t.Errorf("the committed version was refused: %v", err)
	}
	if err := verifyGet([]byte("v2"), o.admissible(1, 2)...); err != nil {
		t.Errorf("the version being written was refused: %v", err)
	}
	if verifyGet([]byte("v0"), o.admissible(1, 2)...) == nil {
		t.Error("a version older than the committed one was accepted")
	}
	if verifyGet([]byte("v1v2"), o.admissible(1, 2)...) == nil {
		t.Error("a hybrid of two versions was accepted")
	}
	// Version 4 holds content 4 mod 3.
	if err := verifyGet([]byte("v1"), o.admissible(4, 4)...); err != nil {
		t.Errorf("version 4 should hold content 1: %v", err)
	}
}
