package store

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/faultnet"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/simnet"
)

// TestChaosReplayDeterminism is the soak-reproducibility assertion: a fixed
// seed must replay the entire fault schedule byte-identically, and with it
// each call's outcome — how many attempts it took and the error it ended
// with. Backoff is the exact exponential schedule, so the seed is the only
// source of variation. The workload is driven serially through CallRetryCtx
// so the trace order is the call order, exactly as a FUSION_FAULT_SEED
// replay of a failing chaos run would be debugged.
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
		}
		for i := 0; i < 200; i++ {
			node := i % cfg.Nodes
			req := &rpc.Request{Kind: rpc.KindGetBlock, BlockID: fmt.Sprintf("b%d", i)}
			_, attempts, err := cluster.CallRetryCtx(context.Background(), inj, node, req, p)
			fmt.Fprintf(&trace, "call=%d node=%d attempts=%d err=%v\n", i, node, attempts, err)
		}
		return trace.String(), inj.InjectedTotal()
	}

	seed := faultSeed(t)
	trace1, faults1 := run(seed)
	trace2, faults2 := run(seed)
	if faults1 == 0 || !strings.Contains(trace1, "attempts=2") {
		t.Fatalf("fault schedule never forced a retry (faults=%d)", faults1)
	}
	if faults1 != faults2 {
		t.Errorf("same seed injected %d vs %d faults", faults1, faults2)
	}
	if trace1 != trace2 {
		t.Errorf("same seed produced different call outcomes:\n--- run 1 ---\n%s--- run 2 ---\n%s", trace1, trace2)
	}
	if traceOther, _ := run(seed + 1); traceOther == trace1 {
		t.Error("different seeds replayed identical schedules")
	}
}
