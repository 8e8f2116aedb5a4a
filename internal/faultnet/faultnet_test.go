package faultnet

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/simnet"
)

// callRetry is the cluster retry loop under no context.
func callRetry(c cluster.Client, node int, req *rpc.Request, p cluster.Policy) (*rpc.Response, error) {
	resp, _, err := cluster.CallRetryCtx(context.Background(), c, node, req, p)
	return resp, err
}

func newInjector(t testing.TB, nodes int, seed int64) (*Injector, *simnet.Cluster) {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Nodes = nodes
	cl := simnet.New(cfg)
	return New(cl, seed), cl
}

func put(t testing.TB, c cluster.Client, node int, id string, data []byte) {
	t.Helper()
	resp, err := c.Call(node, &rpc.Request{Kind: rpc.KindPutBlock, BlockID: id, Data: data})
	if err != nil || resp.Err != "" {
		t.Fatalf("put %s on %d: %v %s", id, node, err, resp.Err)
	}
}

func TestFaultErrorIsRetryableNotNodeDown(t *testing.T) {
	inj, _ := newInjector(t, 3, 1)
	inj.Add(Rule{Node: 0, Kind: rpc.KindPing, Fault: FaultError, Count: 1})
	_, err := inj.Call(0, &rpc.Request{Kind: rpc.KindPing})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if errors.Is(err, cluster.ErrNodeDown) {
		t.Fatal("injected transient error must not read as node-down")
	}
	// Count exhausted: next call passes through.
	if _, err := inj.Call(0, &rpc.Request{Kind: rpc.KindPing}); err != nil {
		t.Fatalf("rule should be exhausted: %v", err)
	}
	if inj.Injected(0) != 1 {
		t.Fatalf("injected count = %d, want 1", inj.Injected(0))
	}
}

func TestFaultDownCrashUntilRevived(t *testing.T) {
	inj, _ := newInjector(t, 3, 1)
	inj.Add(Rule{Node: 1, Kind: KindAny, Fault: FaultDown, Count: 1})
	if _, err := inj.Call(1, &rpc.Request{Kind: rpc.KindPing}); !errors.Is(err, cluster.ErrNodeDown) {
		t.Fatalf("crash call: want ErrNodeDown, got %v", err)
	}
	// Stays down across later calls even though the rule is exhausted.
	if _, err := inj.Call(1, &rpc.Request{Kind: rpc.KindPing}); !errors.Is(err, cluster.ErrNodeDown) {
		t.Fatalf("crashed node must stay down, got %v", err)
	}
	if got := inj.DownNodes(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DownNodes = %v", got)
	}
	inj.SetDown(1, false)
	if _, err := inj.Call(1, &rpc.Request{Kind: rpc.KindPing}); err != nil {
		t.Fatalf("revived node: %v", err)
	}
}

func TestFaultSlowDelays(t *testing.T) {
	inj, _ := newInjector(t, 2, 1)
	inj.Add(Rule{Node: 0, Kind: rpc.KindPing, Fault: FaultSlow, Delay: 30 * time.Millisecond})
	start := time.Now()
	if _, err := inj.Call(0, &rpc.Request{Kind: rpc.KindPing}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("slow call returned in %v, want ≥ 30ms", d)
	}
}

func TestFaultCorruptFlipsResponseNotStorage(t *testing.T) {
	inj, _ := newInjector(t, 2, 7)
	payload := bytes.Repeat([]byte{0xAB}, 128)
	put(t, inj, 0, "blk", payload)
	inj.Add(Rule{Node: 0, Kind: rpc.KindGetBlock, Fault: FaultCorrupt, Count: 1})
	resp, err := inj.Call(0, &rpc.Request{Kind: rpc.KindGetBlock, BlockID: "blk"})
	if err != nil || resp.Err != "" {
		t.Fatalf("corrupt get: %v %s", err, resp.Err)
	}
	if bytes.Equal(resp.Data, payload) {
		t.Fatal("response should be corrupted")
	}
	diff := 0
	for i := range payload {
		if resp.Data[i] != payload[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bytes, want exactly 1", diff)
	}
	// The at-rest copy is untouched: the next read is clean.
	resp, err = inj.Call(0, &rpc.Request{Kind: rpc.KindGetBlock, BlockID: "blk"})
	if err != nil || !bytes.Equal(resp.Data, payload) {
		t.Fatalf("stored block corrupted: %v", err)
	}
}

func TestFaultHangObeysCallTimeout(t *testing.T) {
	inj, _ := newInjector(t, 2, 1)
	inj.Add(Rule{Node: 0, Kind: rpc.KindPing, Fault: FaultHang, Count: 1, Delay: 500 * time.Millisecond})
	pol := cluster.Policy{MaxAttempts: 2, BaseBackoff: 100 * time.Microsecond, Timeout: 20 * time.Millisecond}
	start := time.Now()
	// First attempt hangs past the deadline, the retry passes through.
	resp, err := callRetry(inj, 0, &rpc.Request{Kind: rpc.KindPing}, pol)
	if err != nil || resp.Err != "" {
		t.Fatalf("retry after hang: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond || d > 400*time.Millisecond {
		t.Fatalf("call took %v, want ~one 20ms deadline + retry", d)
	}
}

func TestCallTimeoutSentinel(t *testing.T) {
	inj, _ := newInjector(t, 2, 1)
	inj.Add(Rule{Node: 0, Kind: rpc.KindPing, Fault: FaultHang, Delay: 500 * time.Millisecond})
	pol := cluster.Policy{MaxAttempts: 2, BaseBackoff: 100 * time.Microsecond, Timeout: 15 * time.Millisecond}
	_, err := callRetry(inj, 0, &rpc.Request{Kind: rpc.KindPing}, pol)
	if !errors.Is(err, cluster.ErrCallTimeout) {
		t.Fatalf("want ErrCallTimeout, got %v", err)
	}
}

// TestSeededDeterminism replays the same seeded schedule twice: probabilistic
// rule decisions must be identical call for call.
func TestSeededDeterminism(t *testing.T) {
	const seed = 42
	trace := func() []bool {
		inj, _ := newInjector(t, 3, seed)
		inj.Add(Rule{Node: NodeAny, Kind: KindAny, Fault: FaultError, Prob: 0.4})
		var out []bool
		for i := 0; i < 200; i++ {
			_, err := inj.Call(i%3, &rpc.Request{Kind: rpc.KindPing})
			out = append(out, err != nil)
		}
		return out
	}
	a, b := trace(), trace()
	injectedSomething := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at call %d (seed %d)", i, seed)
		}
		injectedSomething = injectedSomething || a[i]
	}
	if !injectedSomething {
		t.Fatal("probabilistic rule never fired")
	}
}

func TestRetryExhaustionReportsLastError(t *testing.T) {
	inj, _ := newInjector(t, 2, 1)
	inj.Add(Rule{Node: 0, Kind: rpc.KindPing, Fault: FaultError})
	pol := cluster.Policy{MaxAttempts: 3, BaseBackoff: 100 * time.Microsecond}
	_, err := callRetry(inj, 0, &rpc.Request{Kind: rpc.KindPing}, pol)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("exhausted retries should wrap the last error, got %v", err)
	}
	if inj.Injected(0) != 3 {
		t.Fatalf("3 attempts expected, injected %d faults", inj.Injected(0))
	}
}

func TestNodeDownFailsFastByDefault(t *testing.T) {
	inj, _ := newInjector(t, 2, 1)
	inj.SetDown(0, true)
	pol := cluster.Policy{MaxAttempts: 5, BaseBackoff: 50 * time.Millisecond}
	start := time.Now()
	_, err := callRetry(inj, 0, &rpc.Request{Kind: rpc.KindPing}, pol)
	if !errors.Is(err, cluster.ErrNodeDown) {
		t.Fatalf("want ErrNodeDown, got %v", err)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("node-down call took %v: must fail fast, not back off", d)
	}
	if inj.Injected(0) != 0 {
		t.Fatal("down set is not a rule; injected counter should be 0")
	}
}

// TestRetryIdempotentSafe is the testing/quick property behind the retry
// layer: a request that fails i < MaxAttempts times yields the same
// response and leaves the same store state as one that succeeds immediately.
func TestRetryIdempotentSafe(t *testing.T) {
	const maxAttempts = 4
	check := func(seed int64, failRaw uint8, payload []byte) bool {
		fails := int(failRaw) % maxAttempts
		if len(payload) == 0 {
			payload = []byte{0x5A}
		}
		pol := cluster.Policy{MaxAttempts: maxAttempts, BaseBackoff: 50 * time.Microsecond, MaxBackoff: 200 * time.Microsecond}

		cfg := simnet.DefaultConfig()
		cfg.Nodes = 2
		control := simnet.New(cfg)
		faulty := simnet.New(cfg)
		inj := New(faulty, seed)
		if fails > 0 { // Count <= 0 means unlimited, not "never"
			inj.Add(Rule{Node: 0, Kind: rpc.KindPutBlock, Fault: FaultError, Count: fails})
			inj.Add(Rule{Node: 0, Kind: rpc.KindGetBlock, Fault: FaultError, Count: fails})
		}

		putReq := func() *rpc.Request {
			return &rpc.Request{Kind: rpc.KindPutBlock, BlockID: "obj", Data: payload}
		}
		respC, errC := callRetry(control, 0, putReq(), pol)
		respF, errF := callRetry(inj, 0, putReq(), pol)
		if errC != nil || errF != nil || respC.Err != "" || respF.Err != "" {
			return false
		}
		// Same response for a read that also failed i times first.
		getReq := func() *rpc.Request {
			return &rpc.Request{Kind: rpc.KindGetBlock, BlockID: "obj"}
		}
		gotC, errC := callRetry(control, 0, getReq(), pol)
		gotF, errF := callRetry(inj, 0, getReq(), pol)
		if errC != nil || errF != nil {
			return false
		}
		if !bytes.Equal(gotC.Data, gotF.Data) || !bytes.Equal(gotF.Data, payload) {
			return false
		}
		// Identical node-side store state.
		sC, errC := control.Node(0).Blocks.Get("obj", 0, 0)
		sF, errF := faulty.Node(0).Blocks.Get("obj", 0, 0)
		return errC == nil && errF == nil && bytes.Equal(sC, sF)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRuleAfterSkipsEarlyCalls pins the After window: "fail the third
// matching call" is After: 2, Count: 1.
func TestRuleAfterSkipsEarlyCalls(t *testing.T) {
	inj, _ := newInjector(t, 2, 1)
	inj.Add(Rule{Node: 0, Kind: rpc.KindPing, Fault: FaultError, After: 2, Count: 1})
	for i := 0; i < 2; i++ {
		if _, err := inj.Call(0, &rpc.Request{Kind: rpc.KindPing}); err != nil {
			t.Fatalf("call %d is inside the After window, must pass: %v", i+1, err)
		}
	}
	if _, err := inj.Call(0, &rpc.Request{Kind: rpc.KindPing}); !errors.Is(err, ErrInjected) {
		t.Fatalf("third call must fail, got %v", err)
	}
	// Count exhausted: the fourth call passes again.
	if _, err := inj.Call(0, &rpc.Request{Kind: rpc.KindPing}); err != nil {
		t.Fatalf("fourth call: %v", err)
	}
	// Non-matching calls never consume the window.
	inj.Add(Rule{Node: 1, Kind: rpc.KindPing, Fault: FaultError, After: 1, Count: 1})
	if _, err := inj.Call(0, &rpc.Request{Kind: rpc.KindPing}); err != nil {
		t.Fatalf("node 0 call must not consume node 1's window: %v", err)
	}
	if _, err := inj.Call(1, &rpc.Request{Kind: rpc.KindPing}); err != nil {
		t.Fatalf("first node 1 call is skipped: %v", err)
	}
	if _, err := inj.Call(1, &rpc.Request{Kind: rpc.KindPing}); !errors.Is(err, ErrInjected) {
		t.Fatalf("second node 1 call must fail, got %v", err)
	}
}

// TestCrashClientAfter pins the coordinator-crash switch: after n matching
// calls complete, EVERY further call — any kind, any node — fails, modeling
// the client process dying mid-operation (its cleanup fails too).
func TestCrashClientAfter(t *testing.T) {
	inj, _ := newInjector(t, 3, 1)
	inj.CrashClientAfter(rpc.KindPutBlock, 2)
	// Two matching calls go through.
	put(t, inj, 0, "a", []byte("x"))
	put(t, inj, 1, "b", []byte("y"))
	if inj.Crashed() {
		t.Fatal("switch must not trip inside the allowance")
	}
	// Non-matching kinds pass freely until the switch trips.
	if _, err := inj.Call(2, &rpc.Request{Kind: rpc.KindPing}); err != nil {
		t.Fatalf("ping before trip: %v", err)
	}
	// The third matching call trips the switch and fails.
	if _, err := inj.Call(2, &rpc.Request{Kind: rpc.KindPutBlock, BlockID: "c", Data: []byte("z")}); !errors.Is(err, ErrClientCrashed) {
		t.Fatalf("tripping call: want ErrClientCrashed, got %v", err)
	}
	if !inj.Crashed() {
		t.Fatal("Crashed() must report the tripped switch")
	}
	// Now everything fails, including other kinds — the process is dead.
	if _, err := inj.Call(0, &rpc.Request{Kind: rpc.KindPing}); !errors.Is(err, ErrClientCrashed) {
		t.Fatalf("post-crash ping: want ErrClientCrashed, got %v", err)
	}
	if _, err := inj.Call(0, &rpc.Request{Kind: rpc.KindDeleteBlock, BlockID: "a"}); !errors.Is(err, ErrClientCrashed) {
		t.Fatalf("post-crash cleanup: want ErrClientCrashed, got %v", err)
	}
	// Reattach: a fresh coordinator over the same transport works, and the
	// pre-crash writes survived.
	inj.Reattach()
	if inj.Crashed() {
		t.Fatal("Reattach must clear the switch")
	}
	resp, err := inj.Call(0, &rpc.Request{Kind: rpc.KindGetBlock, BlockID: "a"})
	if err != nil || resp.Err != "" || !bytes.Equal(resp.Data, []byte("x")) {
		t.Fatalf("pre-crash write must survive: %v %q", err, resp.Data)
	}
}

// TestCrashClientAfterZero: n = 0 trips on the first call of the matching
// kind, not at arming time — calls of other kinds pass until then, so a crash
// point named after a later phase of an operation is reached in that phase.
func TestCrashClientAfterZero(t *testing.T) {
	inj, _ := newInjector(t, 3, 1)
	inj.CrashClientAfter(rpc.KindCommitObject, 0)
	if inj.Crashed() {
		t.Fatal("arming a kind-specific switch must not trip it")
	}
	put(t, inj, 0, "a", []byte("x"))
	if _, err := inj.Call(1, &rpc.Request{Kind: rpc.KindPing}); err != nil {
		t.Fatalf("non-matching call before the trip: %v", err)
	}
	if inj.Crashed() {
		t.Fatal("non-matching calls must not trip the switch")
	}
	if _, err := inj.Call(2, &rpc.Request{Kind: rpc.KindCommitObject, Object: "o", Epoch: 1}); !errors.Is(err, ErrClientCrashed) {
		t.Fatalf("first matching call: want ErrClientCrashed, got %v", err)
	}
	if !inj.Crashed() {
		t.Fatal("the first matching call must trip the switch")
	}
	if _, err := inj.Call(0, &rpc.Request{Kind: rpc.KindPing}); !errors.Is(err, ErrClientCrashed) {
		t.Fatalf("post-crash ping: want ErrClientCrashed, got %v", err)
	}
}

// TestCrashClientImmediate: n = 0 crashes before any call lands.
func TestCrashClientImmediate(t *testing.T) {
	inj, _ := newInjector(t, 2, 1)
	inj.CrashClientAfter(KindAny, 0)
	if _, err := inj.Call(0, &rpc.Request{Kind: rpc.KindPing}); !errors.Is(err, ErrClientCrashed) {
		t.Fatalf("want ErrClientCrashed, got %v", err)
	}
	if !inj.Crashed() {
		t.Fatal("Crashed() must be true")
	}
}
