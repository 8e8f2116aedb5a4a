package loadgen

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/faultnet"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/sched"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/tcpnet"
)

// testStore builds a 9-node store for load tests over the given client.
func testStore(t testing.TB, client cluster.Client, seed int64) *store.Store {
	t.Helper()
	opts := store.FusionOptions()
	opts.StorageBudget = 0.5 // corpus objects are small
	opts.QueryWorkers = 2
	opts.Retry = cluster.Policy{
		MaxAttempts: 3,
		BaseBackoff: 50 * time.Microsecond,
		MaxBackoff:  500 * time.Microsecond,
		Jitter:      cluster.NewJitterSource(seed),
	}
	s, err := store.New(client, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func simClient(nodes int) cluster.Client {
	cfg := simnet.DefaultConfig()
	cfg.Nodes = nodes
	return simnet.New(cfg)
}

// checkHealthyRun asserts what a load run against a fault-free cluster must
// look like: every op served, every response verified, zero mismatches.
func checkHealthyRun(t *testing.T, run *RunStats) {
	t.Helper()
	if run.OracleMismatches != 0 {
		t.Fatalf("oracle mismatches on a healthy cluster: %v", run.MismatchSamples)
	}
	if run.OracleChecks == 0 {
		t.Fatal("run verified nothing")
	}
	if a := run.Availability(); a != 1 {
		for kind, ops := range run.PerOp {
			if ops.Failed > 0 {
				t.Errorf("%s: %d/%d failed: %v", kind, ops.Failed, ops.Attempted, ops.Errors)
			}
		}
		t.Fatalf("availability %.4f on a healthy cluster", a)
	}
	for _, kind := range []OpKind{OpGet, OpPut, OpQuery} {
		ops := run.PerOp[kind.String()]
		if ops == nil || ops.Attempted == 0 {
			t.Fatalf("no %s ops attempted", kind)
		}
	}
	if run.GoodputOps <= 0 || run.GoodputMBps <= 0 {
		t.Fatalf("no goodput recorded: %+v", run)
	}
}

// TestLoadSmokeSimnet drives the full harness end to end on a healthy
// simulated cluster: open-loop dispatch, mixed traffic, oracle verification
// of every response, SLO verdicts.
func TestLoadSmokeSimnet(t *testing.T) {
	s := testStore(t, simClient(9), 1)
	run, err := Run(StoreTarget{S: s}, Config{
		Seed:          5,
		Rate:          600,
		Duration:      400 * time.Millisecond,
		Objects:       8,
		RowsPerObject: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkHealthyRun(t, run)
	if !run.SLOPass {
		t.Fatalf("default SLOs failed on a healthy smoke run: %+v", run.Verdicts)
	}
	if run.ScheduledOps < 100 {
		t.Fatalf("suspiciously short schedule: %d ops", run.ScheduledOps)
	}
}

// TestLoadOverTCPNet runs the same harness over real sockets: 9 tcpnet
// servers on loopback, hundreds of concurrent in-flight clients. This is
// the "real transport" configuration of the ISSUE, scaled to CI time.
func TestLoadOverTCPNet(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket load run")
	}
	var addrs []string
	for i := 0; i < 9; i++ {
		srv, err := tcpnet.NewServer(cluster.NewNode(i, cluster.NewMemStore()), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	client := tcpnet.NewClient(addrs)
	defer client.Close()
	s := testStore(t, client, 2)
	run, err := Run(StoreTarget{S: s}, Config{
		Seed:          6,
		Rate:          500,
		Duration:      400 * time.Millisecond,
		Objects:       8,
		RowsPerObject: 40,
		MaxInflight:   256,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkHealthyRun(t, run)
}

// corruptTarget flips one byte in every Nth Get response *after* the store
// returned it — downstream of every checksum the system verifies, the way a
// buggy buffer reuse or a DMA error past the NIC would look.
type corruptTarget struct {
	Target
	n     uint64
	calls atomic.Uint64
}

func (c *corruptTarget) Get(ctx context.Context, name string, offset, length uint64) ([]byte, error) {
	data, err := c.Target.Get(ctx, name, offset, length)
	if err == nil && len(data) > 0 && c.calls.Add(1)%c.n == 0 {
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 0x04
	}
	return data, err
}

// TestRunDetectsEndToEndCorruption proves the harness actually fails when
// the data path lies: with a middleware corrupting every 3rd Get response
// past all CRC layers, the run must report oracle mismatches, classify them
// under the oracle_mismatch error class, and fail the SLO verdict.
func TestRunDetectsEndToEndCorruption(t *testing.T) {
	s := testStore(t, simClient(9), 3)
	ct := &corruptTarget{Target: StoreTarget{S: s}, n: 3}
	run, err := Run(ct, Config{
		Seed:          7,
		Rate:          400,
		Duration:      300 * time.Millisecond,
		Objects:       6,
		RowsPerObject: 30,
		Mix:           Mix{Get: 1}, // all Gets: every op exercises the corrupted path
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.OracleMismatches == 0 {
		t.Fatal("corrupted responses went undetected")
	}
	gets := run.PerOp[OpGet.String()]
	if gets.Errors[ErrClassOracleMismatch] != run.OracleMismatches {
		t.Fatalf("mismatches not classified: %v (want %d oracle_mismatch)", gets.Errors, run.OracleMismatches)
	}
	if run.SLOPass {
		t.Fatal("SLOPass despite oracle mismatches")
	}
	if run.OracleChecks <= run.OracleMismatches {
		t.Fatalf("clean responses should still verify: checks=%d mismatches=%d", run.OracleChecks, run.OracleMismatches)
	}
}

// TestRunChargesQueueingToLatency pins the open-loop property the harness
// exists for: against a target that stalls every request 5ms at 4× that
// service rate with MaxInflight 1, a closed-loop driver would report ~5ms
// per op; the open-loop p99 must instead show the queueing backlog (many
// times the service time), because latency is charged from the scheduled
// arrival.
func TestRunChargesQueueingToLatency(t *testing.T) {
	s := testStore(t, simClient(9), 4)
	slow := &stallTarget{Target: StoreTarget{S: s}, delay: 5 * time.Millisecond}
	run, err := Run(slow, Config{
		Seed:          8,
		Rate:          800, // 4× the 200/s the stalled single-file target can serve
		Duration:      250 * time.Millisecond,
		Objects:       4,
		RowsPerObject: 20,
		Mix:           Mix{Get: 1},
		MaxInflight:   1, // serialize: a closed loop in disguise — except for the clock
	})
	if err != nil {
		t.Fatal(err)
	}
	gets := run.PerOp[OpGet.String()]
	// With ~200 arrivals queued behind a 5ms server, the median op waits far
	// longer than one service time. 20ms is 4 service times — conservatively
	// below the tens-of-ms backlog the schedule builds, far above a
	// closed-loop reading.
	if gets.P50Us < 20_000 {
		t.Fatalf("open-loop p50 %.0fµs hides the queueing backlog (service time 5000µs)", gets.P50Us)
	}
}

type stallTarget struct {
	Target
	delay time.Duration
}

func (s *stallTarget) Get(ctx context.Context, name string, offset, length uint64) ([]byte, error) {
	time.Sleep(s.delay)
	return s.Target.Get(ctx, name, offset, length)
}

// TestRunTenantsMultiStream drives two tenants concurrently against one
// admission-controlled store sharing a single oracle: the multi-tenant
// overload harness end to end, once under mild load and once past capacity.
// In both, every stream must verify cleanly, per-tenant stats must be
// accounted under the right names, the reads the scheduler admitted must
// succeed, every tail must stay bounded by the op deadline, the weighted
// point tenant must be served, and every shed op must be classified — never
// "other".
func TestRunTenantsMultiStream(t *testing.T) {
	// Every Get, Put and Query starts with a metadata quorum read — a
	// GetBlock — inside its scheduler slot, so with every node's GetBlock
	// slowed by slowDelay an op holds its slot at least that long and the
	// store serves at most slots ÷ slowDelay = 800 ops/s on any machine.
	const slots, slowDelay = 4, 5 * time.Millisecond
	for _, row := range []struct {
		name         string
		sched        sched.Config
		deadline     time.Duration
		scanny       float64 // scan-heavy aggressor's arrival rate, ops/s
		scannyMix    Mix
		pointy       float64 // weighted point-read tenant's arrival rate
		pastCapacity bool
	}{
		{name: "mild", deadline: 2 * time.Second,
			scanny: 500, scannyMix: Mix{Get: 0.2, Query: 0.8}, pointy: 300,
			sched: sched.Config{Slots: 8, ScanSlots: 4, PutSlots: 4, QueueDepth: 16,
				Weights: map[string]int{"pointy": 4, "scanny": 1}}},
		// The aggressor alone offers twice what the slots can turn over. The
		// point tenant outweighs it 8:1 — fairness, not priority: the
		// aggressor still runs, it just cannot starve. The deadline is 200
		// service times, so a scheduling stall on a busy CI box does not
		// read as failed admitted work.
		{name: "past capacity", deadline: time.Second,
			scanny: 1600, scannyMix: Mix{Get: 0.15, Put: 0.05, Query: 0.80}, pointy: 80,
			sched: sched.Config{Slots: slots, ScanSlots: 2, PutSlots: 2, QueueDepth: 16,
				Weights: map[string]int{"pointy": 8, "scanny": 1}},
			pastCapacity: true},
	} {
		t.Run(row.name, func(t *testing.T) {
			inj := faultnet.New(simClient(9), 1)
			if row.pastCapacity {
				inj.Add(faultnet.Rule{Node: faultnet.NodeAny, Kind: rpc.KindGetBlock, Fault: faultnet.FaultSlow, Delay: slowDelay})
			}
			opts := store.FusionOptions()
			opts.StorageBudget = 0.5
			opts.QueryWorkers = 2
			opts.Sched = sched.New(row.sched)
			s, err := store.New(inj, opts)
			if err != nil {
				t.Fatal(err)
			}
			base := Config{
				Seed:          7,
				Duration:      300 * time.Millisecond,
				Objects:       8,
				RowsPerObject: 40,
				OpDeadline:    row.deadline,
			}
			scanny, pointy := base, base
			scanny.Rate, scanny.Mix = row.scanny, row.scannyMix
			pointy.Rate, pointy.Mix = row.pointy, Mix{Get: 1}
			stats, err := RunTenants(StoreTarget{S: s}, []TenantRun{
				{Name: "scanny", Cfg: scanny},
				{Name: "pointy", Cfg: pointy},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(stats) != 2 || stats["scanny"] == nil || stats["pointy"] == nil {
				t.Fatalf("want per-tenant stats for both tenants, got %v", stats)
			}
			tailBoundUs := 4 * float64(row.deadline) / float64(time.Microsecond)
			var shed uint64
			for name, run := range stats {
				if run.OracleMismatches != 0 {
					t.Errorf("%s: oracle mismatches: %v", name, run.MismatchSamples)
				}
				if run.OracleChecks == 0 {
					t.Errorf("%s: verified nothing", name)
				}
				if n := run.UnclassifiedErrors(); n != 0 {
					t.Errorf("%s: %d unclassified errors", name, n)
				}
				// Shedding is legal; failing work the scheduler accepted is not.
				if a := run.AdmittedReadAvailability(); a < 0.99 {
					t.Errorf("%s: admitted read availability %.4f < 0.99", name, a)
				}
				// Admitted or shed, every op resolves within a few deadlines.
				for op, o := range run.PerOp {
					if o.Attempted > 0 && o.P999Us > tailBoundUs {
						t.Errorf("%s: %s p99.9 %.0fµs exceeds %.0fµs (4× the deadline)", name, op, o.P999Us, tailBoundUs)
					}
				}
				shed += run.Shed()
				t.Logf("%s: offered %.0f ops/s, shed %d, admitted-read availability %.4f, lag p99 %.0fµs",
					name, run.RateOps, run.Shed(), run.AdmittedReadAvailability(), run.DispatchLagP99Us)
				for op, o := range run.PerOp {
					t.Logf("  %s: %d attempted, %d ok, errors %v, p99.9 %.0fµs", op, o.Attempted, o.Succeeded, o.Errors, o.P999Us)
				}
			}
			if gets := stats["pointy"].PerOp[OpGet.String()]; gets.Availability() < 0.90 {
				t.Errorf("point tenant served only %d of %d gets beside the aggressor", gets.Succeeded, gets.Attempted)
			}
			if row.pastCapacity && shed == 0 {
				t.Error("nothing was shed: the run never went past capacity")
			}
			// The store's scheduler must have accounted both tenants by name.
			seen := map[string]bool{}
			for _, tn := range s.SchedStats().Tenants {
				seen[tn.Tenant] = true
			}
			if !seen["scanny"] || !seen["pointy"] {
				t.Errorf("scheduler accounted tenants %v, want scanny and pointy", seen)
			}
		})
	}
}

// TestRunTenantsRejectsMismatchedCorpus: tenants disagreeing on the corpus
// parameters would verify reads against the wrong bytes — the runner must
// refuse up front.
func TestRunTenantsRejectsMismatchedCorpus(t *testing.T) {
	s := testStore(t, simClient(9), 1)
	_, err := RunTenants(StoreTarget{S: s}, []TenantRun{
		{Name: "a", Cfg: Config{Seed: 1, Objects: 8, RowsPerObject: 40, Duration: 10 * time.Millisecond}},
		{Name: "b", Cfg: Config{Seed: 2, Objects: 8, RowsPerObject: 40, Duration: 10 * time.Millisecond}},
	})
	if err == nil {
		t.Fatal("mismatched corpus must be rejected")
	}
}
