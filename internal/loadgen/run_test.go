package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/faultnet"
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
}

// TestLoadSmokeSimnet drives the full harness end to end on a healthy
// simulated cluster: scheduled dispatch, mixed traffic, oracle verification
// of every response, and every scheduled op accounted for.
func TestLoadSmokeSimnet(t *testing.T) {
	s := testStore(t, simClient(9), 1)
	cfg := Config{
		Seed:          5,
		Rate:          600,
		Duration:      400 * time.Millisecond,
		Objects:       8,
		RowsPerObject: 40,
	}
	run, err := Run(StoreTarget{S: s}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkHealthyRun(t, run)
	var ran uint64
	for _, ops := range run.PerOp {
		ran += ops.Attempted + ops.Coalesced
	}
	if scheduled := len(BuildSchedule(cfg)); ran != uint64(scheduled) || scheduled < 100 {
		t.Fatalf("ran %d ops of a %d-op schedule", ran, scheduled)
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
// past all CRC layers, the run must report oracle mismatches and classify
// them under the oracle_mismatch error class.
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
	if run.OracleChecks <= run.OracleMismatches {
		t.Fatalf("clean responses should still verify: checks=%d mismatches=%d", run.OracleChecks, run.OracleMismatches)
	}
}

// TestClassifyErrors pins the error taxonomy: each sentinel the store and
// its transports fail with, wrapped the way they wrap it, lands in its own
// class — an expired or cancelled op is "deadline" — and anything else in
// "other". (The seventh class, oracle_mismatch, is assigned by the runner,
// not classify; TestRunDetectsEndToEndCorruption covers it.)
func TestClassifyErrors(t *testing.T) {
	cases := []struct {
		name  string
		err   error
		class string
	}{
		{"deadline-exceeded", context.DeadlineExceeded, ErrClassDeadline},
		{"canceled", context.Canceled, ErrClassDeadline},
		{"too-many-failures", store.ErrTooManyFailures, ErrClassTooManyFailures},
		{"node-down", cluster.ErrNodeDown, ErrClassNodeDown},
		{"client-crashed", faultnet.ErrClientCrashed, ErrClassClientCrashed},
		{"injected", faultnet.ErrInjected, ErrClassInjected},
		{"unknown", errors.New("disk on fire"), ErrClassOther},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wrapped := fmt.Errorf("store: get obj: %w", c.err)
			if got := classify(wrapped); got != c.class {
				t.Errorf("classify(%v) = %q, want %q", wrapped, got, c.class)
			}
		})
	}
}

// rejectTarget fails every op with err, the way a store whose every call
// runs out of its deadline does.
type rejectTarget struct{ err error }

func (r rejectTarget) Get(context.Context, string, uint64, uint64) ([]byte, error) {
	return nil, r.err
}
func (r rejectTarget) Put(context.Context, string, []byte) error { return r.err }
func (r rejectTarget) Query(context.Context, string) (*store.Result, error) {
	return nil, r.err
}

// TestRunFilesExpiredOpsAsDeadline: against a target that fails every op
// with an expired deadline, the runner must count each one attempted and
// failed, file every failure of every kind under "deadline" — never
// "other" — and verify nothing.
func TestRunFilesExpiredOpsAsDeadline(t *testing.T) {
	cfg := Config{Seed: 4, Rate: 2000, Duration: 50 * time.Millisecond, Objects: 4, RowsPerObject: 20}
	oracle, err := NewOracle(cfg.Seed, cfg.Objects, cfg.RowsPerObject)
	if err != nil {
		t.Fatal(err)
	}
	expired := rejectTarget{err: fmt.Errorf("store: get obj: %w", context.DeadlineExceeded)}
	run, err := RunPreloaded(expired, oracle, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var failed uint64
	for kind, ops := range run.PerOp {
		if ops.Succeeded != 0 || ops.Failed != ops.Attempted {
			t.Errorf("%s: %d of %d expired ops succeeded", kind, ops.Succeeded, ops.Attempted)
		}
		if ops.Errors[ErrClassDeadline] != ops.Failed || len(ops.Errors) > 1 {
			t.Errorf("%s: %d failures filed as %v, want all deadline", kind, ops.Failed, ops.Errors)
		}
		failed += ops.Failed
	}
	if failed == 0 || run.Availability() != 0 {
		t.Fatalf("%d ops failed, availability %.4f: the target failed nothing", failed, run.Availability())
	}
	if run.OracleChecks != 0 || run.OracleMismatches != 0 {
		t.Fatalf("expired ops verified: checks=%d mismatches=%d", run.OracleChecks, run.OracleMismatches)
	}
}

// TestRunPreloadedRejectsShortOracle: a config asking for more objects than
// the oracle holds would target objects nobody preloaded and verify reads
// against no bytes — the runner must refuse up front.
func TestRunPreloadedRejectsShortOracle(t *testing.T) {
	oracle, err := NewOracle(1, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 1, Duration: 10 * time.Millisecond, Objects: 8, RowsPerObject: 20}
	if _, err := RunPreloaded(rejectTarget{err: errors.New("unreachable")}, oracle, cfg); err == nil {
		t.Fatal("an oracle of 4 objects must not serve an 8-object config")
	}
}
