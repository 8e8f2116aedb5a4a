package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/rpc"
)

// fakeClock is an injectable, manually-advanced time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Second})
	b.SetClock(clk.Now)

	// Closed: everything flows; failures below the threshold don't trip.
	for i := 0; i < 2; i++ {
		if !b.Allow(0) {
			t.Fatal("closed circuit must allow")
		}
		b.Failure(0)
	}
	if b.State(0) != BreakerClosed {
		t.Fatalf("state after 2/3 failures = %v", b.State(0))
	}
	// A success resets the streak.
	b.Success(0)
	b.Failure(0)
	b.Failure(0)
	if b.State(0) != BreakerClosed {
		t.Fatalf("success must reset the failure streak: %v", b.State(0))
	}
	// The third consecutive failure opens the circuit.
	b.Failure(0)
	if b.State(0) != BreakerOpen {
		t.Fatalf("state after threshold = %v, want open", b.State(0))
	}
	if b.Allow(0) {
		t.Fatal("open circuit must reject before cooldown")
	}
	// Cooldown elapses: exactly one probe is admitted (half-open).
	clk.Advance(time.Second)
	if !b.Allow(0) {
		t.Fatal("cooldown elapsed: the probe must be admitted")
	}
	if b.State(0) != BreakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", b.State(0))
	}
	if b.Allow(0) {
		t.Fatal("only one probe may be in flight")
	}
	// A failed probe re-opens immediately; the next cooldown applies.
	b.Failure(0)
	if b.State(0) != BreakerOpen {
		t.Fatalf("failed probe must re-open: %v", b.State(0))
	}
	if b.Allow(0) {
		t.Fatal("re-opened circuit must reject")
	}
	clk.Advance(time.Second)
	if !b.Allow(0) {
		t.Fatal("second probe must be admitted after another cooldown")
	}
	// A successful probe closes the circuit for good.
	b.Success(0)
	if b.State(0) != BreakerClosed || !b.Allow(0) {
		t.Fatalf("successful probe must close: %v", b.State(0))
	}
	// Per-node isolation: node 1 was never touched.
	if b.State(1) != BreakerClosed || !b.Allow(1) {
		t.Fatal("untouched node must stay closed")
	}
}

func TestBreakerNilReceiver(t *testing.T) {
	var b *Breaker
	if !b.Allow(3) {
		t.Fatal("nil breaker must allow everything")
	}
	b.Success(3)
	b.Failure(3)
	if b.State(3) != BreakerClosed {
		t.Fatal("nil breaker reports closed")
	}
	if snap := b.Snapshot(); len(snap) != 0 {
		t.Fatalf("nil breaker snapshot = %v", snap)
	}
}

func TestBreakerSnapshot(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Hour})
	b.Failure(2)
	b.Success(5)
	snap := b.Snapshot()
	if snap[2] != "open" || snap[5] != "closed" {
		t.Fatalf("snapshot = %v", snap)
	}
}

// failingClient always fails at the transport level and counts attempts.
type failingClient struct {
	mu    sync.Mutex
	calls int
}

func (c *failingClient) NumNodes() int { return 3 }

func (c *failingClient) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return nil, fmt.Errorf("transport refused (node %d)", node)
}

func (c *failingClient) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// TestCallRetryBreakerFailsFast pins the breaker/retry integration: once a
// node's consecutive transport failures cross the threshold, further calls
// fail with ErrNodeDown before any transport attempt is made.
func TestCallRetryBreakerFailsFast(t *testing.T) {
	fc := &failingClient{}
	p := Policy{
		MaxAttempts: 1,
		BaseBackoff: time.Microsecond,
		Breaker:     NewBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Hour}),
	}
	req := &rpc.Request{Kind: rpc.KindPing}
	for i := 0; i < 2; i++ {
		if _, _, err := CallRetryCtx(context.Background(), fc, 0, req, p); err == nil {
			t.Fatal("failing transport must error")
		}
	}
	if fc.count() != 2 {
		t.Fatalf("transport attempts before trip = %d, want 2", fc.count())
	}
	// Circuit open: the next call is rejected without touching the transport.
	_, _, err := CallRetryCtx(context.Background(), fc, 0, req, p)
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("open circuit: want ErrNodeDown, got %v", err)
	}
	if fc.count() != 2 {
		t.Fatalf("open circuit must not issue transport calls (calls = %d)", fc.count())
	}
	// Other nodes are unaffected (they still reach the transport).
	if _, _, err := CallRetryCtx(context.Background(), fc, 1, req, p); errors.Is(err, ErrNodeDown) {
		t.Fatalf("node 1 must not be short-circuited: %v", err)
	}
	if fc.count() != 3 {
		t.Fatalf("node 1 call must hit the transport (calls = %d)", fc.count())
	}
}
