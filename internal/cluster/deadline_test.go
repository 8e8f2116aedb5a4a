package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/rpc"
)

// alwaysFailClient counts calls and always fails with a retryable transport
// error.
type alwaysFailClient struct {
	calls atomic.Int64
	nodes int
}

func (c *alwaysFailClient) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	c.calls.Add(1)
	return nil, fmt.Errorf("cluster: synthetic transport failure to node %d", node)
}

func (c *alwaysFailClient) NumNodes() int { return c.nodes }

// TestRetryBackoffCrossesDeadline is the regression test for the
// retry-past-deadline bug: a backoff that could only complete after the
// caller's deadline must fail immediately with a deadline error — not sleep
// through the deadline and issue a doomed attempt.
func TestRetryBackoffCrossesDeadline(t *testing.T) {
	c := &alwaysFailClient{nodes: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()

	p := Policy{
		MaxAttempts: 5,
		BaseBackoff: time.Second, // guaranteed to cross the 20ms deadline
		MaxBackoff:  time.Second,
	}
	start := time.Now()
	_, attempts, err := CallRetryCtx(ctx, c, 0, &rpc.Request{Kind: rpc.KindPing}, p)
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v must wrap context.DeadlineExceeded", err)
	}
	// One attempt ran and the retry after it was abandoned at its backoff:
	// the returned count is the calls the transport saw.
	if attempts != 1 || c.calls.Load() != 1 {
		t.Fatalf("exactly one attempt must run before the doomed backoff; got attempts=%d calls=%d", attempts, c.calls.Load())
	}
	if !strings.Contains(err.Error(), "backoff crosses deadline") {
		t.Fatalf("error %v must name the abandoned backoff", err)
	}
	// The whole point: it must not have slept the 1s backoff.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("call took %v — it slept into the backoff instead of failing fast", elapsed)
	}
}

// TestRetryNoAttemptAfterCancel: a context cancelled before the call issues
// zero transport attempts.
func TestRetryNoAttemptAfterCancel(t *testing.T) {
	c := &alwaysFailClient{nodes: 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, attempts, err := CallRetryCtx(ctx, c, 0, &rpc.Request{Kind: rpc.KindPing}, Policy{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v must wrap context.Canceled", err)
	}
	if attempts != 0 || c.calls.Load() != 0 {
		t.Fatalf("no attempt may run on a dead context; got attempts=%d calls=%d", attempts, c.calls.Load())
	}
}

// TestRetryBackgroundKeepsLegacyBehavior: without a deadline the loop
// exhausts MaxAttempts.
func TestRetryBackgroundKeepsLegacyBehavior(t *testing.T) {
	c := &alwaysFailClient{nodes: 1}
	p := Policy{MaxAttempts: 3, BaseBackoff: 100 * time.Microsecond, MaxBackoff: 200 * time.Microsecond}
	_, attempts, err := CallRetryCtx(context.Background(), c, 0, &rpc.Request{Kind: rpc.KindPing}, p)
	if err == nil {
		t.Fatal("expected error")
	}
	if attempts != 3 || c.calls.Load() != 3 {
		t.Fatalf("background context must exhaust MaxAttempts; got attempts=%d calls=%d", attempts, c.calls.Load())
	}
}

// TestNodeRejectsExpiredRequest: work whose budget elapsed before handling
// starts is refused with ErrExpired, before touching storage.
func TestNodeRejectsExpiredRequest(t *testing.T) {
	n := NewNode(0, NewMemStore())
	resp := n.handle(&rpc.Request{Kind: rpc.KindGetBlock, BlockID: "b"}, time.Now().Add(-time.Millisecond))
	if resp.Err == "" || !IsExpiredErr(resp.Err) {
		t.Fatalf("expired request must fail with ErrExpired; got %q", resp.Err)
	}
	// And the wire encoding: Handle derives the deadline from the relative
	// DeadlineMicros budget, so a zero budget means unbounded.
	if resp := n.Handle(&rpc.Request{Kind: rpc.KindPing}); resp.Err != "" {
		t.Fatalf("unbounded ping failed: %s", resp.Err)
	}
}

// TestBatchAbandonsAtSubOpCheckpoint: once the budget elapses, a batch frame
// fails every remaining sub-op at the next sub-op boundary instead of
// running them.
func TestBatchAbandonsAtSubOpCheckpoint(t *testing.T) {
	bs := NewMemStore()
	if err := bs.Put("blk", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	n := NewNode(0, bs)
	batch := &rpc.Request{Kind: rpc.KindBatch, Subs: []rpc.Request{
		{Kind: rpc.KindGetBlock, BlockID: "blk"},
		{Kind: rpc.KindGetBlock, BlockID: "blk"},
		{Kind: rpc.KindGetBlock, BlockID: "blk"},
	}}

	// Healthy budget: every sub-op runs.
	resp := n.handleBatch(batch, time.Now().Add(time.Minute))
	for i, sub := range resp.Subs {
		if sub.Err != "" {
			t.Fatalf("sub %d failed under a healthy budget: %s", i, sub.Err)
		}
	}

	// Expired budget: the checkpoint fires at sub-op 0 and every slot gets
	// a classified ErrExpired, index-aligned.
	resp = n.handleBatch(batch, time.Now().Add(-time.Millisecond))
	if len(resp.Subs) != len(batch.Subs) {
		t.Fatalf("sub-response count %d != %d", len(resp.Subs), len(batch.Subs))
	}
	for i, sub := range resp.Subs {
		if !IsExpiredErr(sub.Err) {
			t.Fatalf("sub %d: %q is not an ErrExpired", i, sub.Err)
		}
		if !strings.Contains(sub.Err, "sub-op 0/3") {
			t.Fatalf("sub %d: %q does not name the abandonment checkpoint", i, sub.Err)
		}
	}
}

// TestRetryBackoffSchedule: backoff is the exact exponential schedule —
// BaseBackoff doubling per retry, capped at MaxBackoff — with no random
// term, so a replayed fault schedule replays its sleeps too. The zero
// Policy's bounds are 1ms doubling to 100ms.
func TestRetryBackoffSchedule(t *testing.T) {
	p := Policy{BaseBackoff: 3 * time.Millisecond, MaxBackoff: 20 * time.Millisecond}
	want := []time.Duration{3, 6, 12, 20, 20, 20}
	for i, w := range want {
		if got := p.backoff(i + 1); got != w*time.Millisecond {
			t.Errorf("retry %d: backoff %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	d := Policy{}.withDefaults()
	if d.MaxAttempts != 3 || d.BaseBackoff != time.Millisecond || d.MaxBackoff != 100*time.Millisecond {
		t.Fatalf("default policy %+v, want 3 attempts, 1ms doubling to 100ms", d)
	}
	for retry, w := range map[int]time.Duration{1: time.Millisecond, 7: 64 * time.Millisecond, 8: 100 * time.Millisecond, 40: 100 * time.Millisecond} {
		if got := d.backoff(retry); got != w {
			t.Errorf("default policy retry %d: backoff %v, want %v", retry, got, w)
		}
	}
}

// downClient refuses every call the way a transport refuses a dead node.
type downClient struct{ calls atomic.Int64 }

func (c *downClient) Call(node int, _ *rpc.Request) (*rpc.Response, error) {
	c.calls.Add(1)
	return nil, fmt.Errorf("%w: %d", ErrNodeDown, node)
}

func (c *downClient) NumNodes() int { return 1 }

// TestRetryHealthAccounting: Policy.Health sees every attempt. A transient
// failure is retried to MaxAttempts, each retry counted; a refused
// connection is a definitive answer — one attempt, no retry, ErrNodeDown.
func TestRetryHealthAccounting(t *testing.T) {
	h := metrics.NewHealth()
	p := Policy{MaxAttempts: 3, BaseBackoff: 50 * time.Microsecond, MaxBackoff: 100 * time.Microsecond, Health: h}

	flaky := &alwaysFailClient{nodes: 1}
	if _, attempts, err := CallRetryCtx(context.Background(), flaky, 0, &rpc.Request{Kind: rpc.KindPing}, p); err == nil || attempts != 3 {
		t.Fatalf("transient failures: err %v after %d attempts, want an error after 3", err, attempts)
	}
	if got, want := h.Node(0), (metrics.NodeHealth{Calls: 3, Failures: 3, Retries: 2}); got != want {
		t.Fatalf("transient failures: node 0 health %+v, want %+v", got, want)
	}

	h.Reset()
	down := &downClient{}
	_, attempts, err := CallRetryCtx(context.Background(), down, 0, &rpc.Request{Kind: rpc.KindPing}, p)
	if !errors.Is(err, ErrNodeDown) || attempts != 1 || down.calls.Load() != 1 {
		t.Fatalf("down node: err %v after %d attempts (%d calls), want ErrNodeDown after 1", err, attempts, down.calls.Load())
	}
	if got, want := h.Node(0), (metrics.NodeHealth{Calls: 1, Failures: 1}); got != want {
		t.Fatalf("down node: node 0 health %+v, want %+v", got, want)
	}
}
