package store

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/faultnet"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/simnet"
)

// flakyClient deterministically fails every odd-numbered transport call, so
// each logical RPC fails once and succeeds on its first retry — the retry
// path runs on every call without ever escalating to the (parallel, and
// therefore schedule-dependent) reconstruction fan-out.
type flakyClient struct {
	inner cluster.Client
	mu    sync.Mutex
	n     int
	armed bool
}

func (f *flakyClient) NumNodes() int { return f.inner.NumNodes() }

func (f *flakyClient) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	f.mu.Lock()
	fail := false
	if f.armed {
		f.n++
		fail = f.n%2 == 1
	}
	f.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("flaky: injected transient failure (call %d)", f.n)
	}
	return f.inner.Call(node, req)
}

// TestBackoffTraceDeterminism pins the Policy.Jitter contract: with the
// jitter source seeded, a serial Put+Get workload whose every RPC retries
// once must produce a byte-identical (node, retry, duration) backoff trace
// on every run — the property the global math/rand jitter silently broke
// under FUSION_FAULT_SEED. A different seed must change the durations.
func TestBackoffTraceDeterminism(t *testing.T) {
	run := func(jitterSeed int64) string {
		cfg := simnet.DefaultConfig()
		cfg.Nodes = 9
		fc := &flakyClient{inner: simnet.New(cfg)}
		var trace strings.Builder
		opts := fusionTestOptions()
		opts.Retry = cluster.Policy{
			MaxAttempts: 3,
			BaseBackoff: 50 * time.Microsecond,
			MaxBackoff:  500 * time.Microsecond,
			JitterFrac:  0.5,
			Jitter:      cluster.NewJitterSource(jitterSeed),
			OnBackoff: func(node, retry int, d time.Duration) {
				fmt.Fprintf(&trace, "node=%d retry=%d d=%v\n", node, retry, d)
			},
		}
		s, err := New(fc, opts)
		if err != nil {
			t.Fatal(err)
		}
		data, _, _ := makeObject(t, 2, 150, 7)
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		// Warm the metadata cache before arming the failures: Put already
		// cached it, so every Get below is pure serial block reads.
		fc.mu.Lock()
		fc.armed = true
		fc.mu.Unlock()
		size := uint64(len(data))
		for _, r := range [][2]uint64{{0, 0}, {10, 100}, {size / 2, size / 3}, {size - 5, 5}} {
			if _, err := s.Get("obj", r[0], r[1]); err != nil {
				t.Fatalf("Get(%d, %d): %v", r[0], r[1], err)
			}
		}
		return trace.String()
	}

	first := run(42)
	if first == "" {
		t.Fatal("workload recorded no backoff events — the retry path never ran")
	}
	if again := run(42); again != first {
		t.Errorf("same jitter seed produced different backoff traces:\n--- run 1 ---\n%s--- run 2 ---\n%s", first, again)
	}
	if other := run(43); other == first {
		t.Error("different jitter seeds produced identical backoff traces — jitter is not wired to the source")
	}
}

// TestChaosReplayDeterminism is the soak-reproducibility assertion: a fixed
// seed must replay the entire fault schedule AND the retry/backoff schedule
// byte-identically. The workload is driven serially through CallRetryCtx so
// the trace order is the call order, exactly as a FUSION_FAULT_SEED replay
// of a failing chaos run would be debugged.
func TestChaosReplayDeterminism(t *testing.T) {
	run := func(seed int64) (string, uint64) {
		cfg := simnet.DefaultConfig()
		cfg.Nodes = 9
		inj := faultnet.New(simnet.New(cfg), seed)
		inj.Add(faultnet.Rule{Node: faultnet.NodeAny, Kind: rpc.KindGetBlock, Fault: faultnet.FaultError, Prob: 0.3})
		var trace strings.Builder
		p := cluster.Policy{
			MaxAttempts: 4,
			BaseBackoff: 50 * time.Microsecond,
			MaxBackoff:  500 * time.Microsecond,
			JitterFrac:  0.5,
			Jitter:      cluster.NewJitterSource(seed),
			OnBackoff: func(node, retry int, d time.Duration) {
				fmt.Fprintf(&trace, "node=%d retry=%d d=%v\n", node, retry, d)
			},
		}
		for i := 0; i < 200; i++ {
			req := &rpc.Request{Kind: rpc.KindGetBlock, BlockID: fmt.Sprintf("b%d", i)}
			_, _, _ = cluster.CallRetryCtx(context.Background(), inj, i%cfg.Nodes, req, p)
		}
		return trace.String(), inj.InjectedTotal()
	}

	seed := faultSeed(t)
	trace1, faults1 := run(seed)
	trace2, faults2 := run(seed)
	if faults1 == 0 || trace1 == "" {
		t.Fatalf("fault schedule never fired (faults=%d, trace %d bytes)", faults1, len(trace1))
	}
	if faults1 != faults2 {
		t.Errorf("same seed injected %d vs %d faults", faults1, faults2)
	}
	if trace1 != trace2 {
		t.Errorf("same seed produced different backoff traces:\n--- run 1 ---\n%s--- run 2 ---\n%s", trace1, trace2)
	}
	if traceOther, _ := run(seed + 1); traceOther == trace1 {
		t.Error("different seeds replayed identical schedules")
	}
}
