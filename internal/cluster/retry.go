package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/rpc"
)

// ErrCallTimeout reports an attempt abandoned at its per-call deadline. The
// underlying transport call keeps running in the background; every node RPC
// is idempotent, so a retried attempt racing a late response is harmless.
var ErrCallTimeout = errors.New("cluster: call timed out")

// Policy bounds the retry/backoff/deadline behavior of the hardened call
// path. The zero value is the default: 3 attempts, 1ms base backoff doubling
// to 100ms, no jitter, no per-attempt deadline. ErrNodeDown is never retried:
// a refused connection is a definitive answer, and for reads the caller's
// better retry is the reconstruction fan-out over other nodes.
type Policy struct {
	// MaxAttempts is the total number of tries (first call included).
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; each further retry
	// doubles it, capped at MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff.
	MaxBackoff time.Duration
	// JitterFrac scales each backoff by a uniform factor in
	// [1, 1+JitterFrac], decorrelating retry storms across callers. 0 (the
	// default) sleeps the exact exponential schedule.
	JitterFrac float64
	// Timeout, when positive, bounds each attempt; an attempt that exceeds
	// it fails with ErrCallTimeout and is retried like any transport error.
	Timeout time.Duration
	// Jitter is the randomness source for backoff jitter. Nil means the
	// package's locked, fixed-seed default — NOT the global math/rand
	// source, so fault-injection runs under a fixed FUSION_FAULT_SEED
	// replay byte-identical backoff schedules. Tests and chaos harnesses
	// inject NewJitterSource(seed) to tie the jitter to their seed.
	Jitter JitterSource
	// OnBackoff, when set, observes every retry sleep before it happens:
	// the node, the retry number (1-based), and the jittered duration. The
	// determinism tests record these into a backoff trace.
	OnBackoff func(node, retry int, d time.Duration)
	// Health, when set, receives per-node call/failure/retry/timeout counts.
	Health *metrics.Health
	// Breaker, when set, is the per-node circuit breaker every call
	// consults: a node whose circuit is open fails fast with ErrNodeDown
	// (no transport attempt), and every attempt's transport outcome feeds
	// the breaker's state machine. Nil disables circuit breaking.
	Breaker *Breaker
}

// JitterSource yields uniform draws in [0,1) for backoff jitter. It must be
// safe for concurrent use.
type JitterSource interface {
	Float64() float64
}

// lockedSource is a mutex-guarded seeded *rand.Rand: deterministic given
// its seed, safe across the goroutines of a parallel fan-out.
type lockedSource struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewJitterSource returns a concurrency-safe jitter source with its own
// seeded generator.
func NewJitterSource(seed int64) JitterSource {
	return &lockedSource{rng: rand.New(rand.NewSource(seed))}
}

func (s *lockedSource) Float64() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Float64()
}

// defaultJitter decorrelates retry storms without depending on the global
// math/rand state, keeping runs that set no source reproducible.
var defaultJitter = NewJitterSource(1)

// withDefaults fills unset bounds: the one definition of the default policy.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 100 * time.Millisecond
	}
	return p
}

// backoff returns the sleep before retry number retry (1-based).
func (p Policy) backoff(retry int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < retry && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.JitterFrac > 0 {
		src := p.Jitter
		if src == nil {
			src = defaultJitter
		}
		d = time.Duration(float64(d) * (1 + p.JitterFrac*src.Float64()))
	}
	return d
}

// CallRetryCtx is the hardened transport call: per-attempt deadline, bounded
// retries with exponential backoff, the per-node circuit breaker and health
// accounting. It reports how many attempts ran, so request-scoped tracing can
// attribute retries to the request that paid for them. Only transport-level
// failures are retried; an rpc.Response carrying an application error is a
// success at this layer. All node RPCs are idempotent (Put rewrites the same
// bytes, reads have no side effects), so re-sending a request whose response
// was lost is safe.
//
// The loop is bounded end to end by the caller's context: no attempt is
// issued once ctx is done, a backoff that would sleep past the context
// deadline fails immediately instead of sleeping into a guaranteed-useless
// retry, and each attempt's per-call timeout is capped at the remaining
// deadline budget.
func CallRetryCtx(ctx context.Context, c Client, node int, req *rpc.Request, p Policy) (*rpc.Response, int, error) {
	p = p.withDefaults()
	var lastErr error
	attempts := 0
	for attempt := 1; attempt <= p.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, attempts, fmt.Errorf("cluster: %d attempts to node %d abandoned (%v): %w", attempts, node, lastErr, err)
			}
			return nil, attempts, err
		}
		if attempt > 1 {
			p.Health.Retry(node)
			d := p.backoff(attempt - 1)
			if p.OnBackoff != nil {
				p.OnBackoff(node, attempt-1, d)
			}
			if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
				// The retry could only fire after the caller's deadline —
				// fail now rather than sleeping past it and issuing doomed
				// work (the pre-context bug this path exists to fix).
				return nil, attempts, fmt.Errorf("cluster: %d attempts to node %d, backoff crosses deadline (%v): %w",
					attempts, node, lastErr, context.DeadlineExceeded)
			}
			if !sleepCtx(ctx, d) {
				return nil, attempts, ctx.Err()
			}
		}
		if !p.Breaker.Allow(node) {
			// Open circuit: fail fast without a transport attempt, with the
			// same sentinel a refused connection produces so callers fall
			// into their reconstruction/fan-out paths immediately.
			return nil, attempts, fmt.Errorf("%w: node %d (circuit open)", ErrNodeDown, node)
		}
		attempts = attempt
		p.Health.Call(node)
		timeout := p.Timeout
		if dl, ok := ctx.Deadline(); ok {
			rem := time.Until(dl)
			if rem <= 0 {
				return nil, attempts, context.DeadlineExceeded
			}
			if timeout <= 0 || rem < timeout {
				timeout = rem
			}
		}
		resp, err := callTimeoutCtx(ctx, c, node, req, timeout)
		if err == nil {
			p.Breaker.Success(node)
			return resp, attempts, nil
		}
		p.Breaker.Failure(node)
		p.Health.Failure(node)
		if errors.Is(err, ErrCallTimeout) {
			p.Health.Timeout(node)
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			// Cancelled or expired mid-attempt: the context error wins and
			// is never retried.
			return nil, attempts, fmt.Errorf("cluster: attempt %d to node %d abandoned (%v): %w", attempts, node, err, ctxErr)
		}
		lastErr = err
		if errors.Is(err, ErrNodeDown) {
			return nil, attempts, err
		}
	}
	return nil, attempts, fmt.Errorf("cluster: %d attempts to node %d failed: %w", p.MaxAttempts, node, lastErr)
}

// sleepCtx sleeps for d unless ctx is done first; it reports whether the
// full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if ctx.Done() == nil {
		time.Sleep(d)
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// callTimeoutCtx performs one Call bounded by d (d <= 0 means unbounded) and
// by ctx. At the timeout, or the moment ctx is done, the in-flight call is
// abandoned to a buffered channel, so the transport goroutine never blocks;
// a context that cannot be cancelled and no timeout is a plain Call.
func callTimeoutCtx(ctx context.Context, c Client, node int, req *rpc.Request, d time.Duration) (*rpc.Response, error) {
	if d <= 0 && ctx.Done() == nil {
		return c.Call(node, req)
	}
	type result struct {
		resp *rpc.Response
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		resp, err := c.Call(node, req)
		ch <- result{resp, err}
	}()
	var timeC <-chan time.Time
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		timeC = timer.C
	}
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-timeC:
		return nil, fmt.Errorf("%w: node %d after %v", ErrCallTimeout, node, d)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
