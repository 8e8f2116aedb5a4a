// Degraded-read matrix, concurrent-load variant (external test package: the
// load harness imports store, so this file must sit outside package store).
//
// The PR 2 matrix proves every ≤ n−k crash pattern serves reads on an idle
// store; the PR 4 crash-point suite proves an interrupted overwrite leaves
// old-or-new-never-hybrid state. This test composes both *under traffic*:
// crash patterns are replayed while the open-loop generator overwrites and
// reads the same objects, and the content oracle asserts that no request —
// degraded, racing an overwrite, or both — observes bytes that are not
// exactly one admissible version.
package store_test

import (
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/faultnet"
	"github.com/fusionstore/fusion/internal/loadgen"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/store"
)

func TestDegradedReadsUnderLoad(t *testing.T) {
	const seed = 17
	cfg := simnet.DefaultConfig()
	cfg.Nodes = 9
	inj := faultnet.New(simnet.New(cfg), seed)
	opts := store.FusionOptions()
	opts.StorageBudget = 0.5
	opts.QueryWorkers = 2
	opts.Retry = cluster.Policy{
		MaxAttempts: 3,
		BaseBackoff: 50 * time.Microsecond,
		MaxBackoff:  500 * time.Microsecond,
	}
	s, err := store.New(inj, opts)
	if err != nil {
		t.Fatal(err)
	}

	loadCfg := loadgen.Config{
		Seed:          seed,
		Rate:          500,
		Duration:      900 * time.Millisecond,
		Objects:       8,
		RowsPerObject: 40,
		// Write-heavy relative to the default mix: the point is overwrites
		// racing degraded reads.
		Mix: loadgen.Mix{Get: 0.55, Put: 0.30, Query: 0.15},
	}
	target := loadgen.StoreTarget{S: s}
	oracle, err := loadgen.NewOracle(loadCfg.Seed, loadCfg.Objects, loadCfg.RowsPerObject)
	if err != nil {
		t.Fatal(err)
	}
	if err := loadgen.Preload(target, oracle); err != nil {
		t.Fatal(err)
	}

	// Replay full-tolerance crash patterns from the PR 2 matrix while the
	// generator runs: each window downs n−k = 3 nodes, holds, then revives
	// before the next pattern (metakv's 7-replica majority survives 3 down,
	// so reads must keep working through every window).
	patterns := [][]int{{0, 1, 2}, {0, 4, 8}, {6, 7, 8}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, pattern := range patterns {
			time.Sleep(120 * time.Millisecond)
			for _, n := range pattern {
				inj.SetDown(n, true)
			}
			time.Sleep(130 * time.Millisecond)
			inj.ReviveAll()
		}
	}()
	run, err := loadgen.RunPreloaded(target, oracle, loadCfg)
	<-done
	if err != nil {
		t.Fatal(err)
	}

	if run.OracleMismatches != 0 {
		t.Fatalf("hybrid or stale bytes observed under degraded load: %v", run.MismatchSamples)
	}
	if avail := run.ReadAvailability(); avail < 0.99 {
		t.Fatalf("read availability %.4f under tolerable crash patterns (gets: %+v, queries: %+v)",
			avail, run.PerOp["get"], run.PerOp["query"])
	}
	// Puts may legitimately fail while placement nodes are down, but every
	// failure must be cleanly classified — an unexplained error class under
	// fault replay is a bug.
	for kind, ops := range run.PerOp {
		if n := ops.Errors[loadgen.ErrClassOther]; n > 0 {
			t.Fatalf("%d unclassified %s errors under crash replay: %v", n, kind, ops.Errors)
		}
	}
	if run.Trace.DegradedReads == 0 {
		t.Fatal("no degraded reads recorded — the crash windows never overlapped traffic")
	}
	t.Logf("degraded-under-load: readAvail=%.4f degraded=%d retries=%d putErrs=%v",
		run.ReadAvailability(), run.Trace.DegradedReads, run.Trace.Retries, run.PerOp["put"].Errors)
}
