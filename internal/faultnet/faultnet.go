// Package faultnet is a deterministic fault-injection layer over any
// cluster.Client (simnet or tcpnet). An Injector wraps the inner transport
// and applies seeded, reproducible faults per (node, RPC kind): injected
// transport errors, hangs, slow responses, in-flight shard corruption, and
// crash-until-revived node downs. Every probabilistic decision is drawn
// from a single seeded generator, so a serial test that logs its seed can
// replay the exact fault schedule; concurrent tests reproduce the schedule
// distribution (the controller decisions in chaos.go are fully seeded).
package faultnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/rpc"
)

// ErrInjected is the transient transport error FaultError and FaultHang
// produce. It deliberately does not wrap cluster.ErrNodeDown: the retry
// layer treats it as retryable, the way a real flaky link behaves.
var ErrInjected = errors.New("faultnet: injected transport error")

// ErrClientCrashed reports a call made through an injector whose
// coordinator-crash switch has tripped (CrashClientAfter): the process
// using this client is simulated dead, so nothing it tries — including its
// own cleanup — reaches the cluster.
var ErrClientCrashed = errors.New("faultnet: coordinator crashed")

// NodeAny matches every node in a Rule.
const NodeAny = -1

// KindAny matches every RPC kind in a Rule.
const KindAny rpc.Kind = 0xFF

// Fault enumerates the injectable fault types.
type Fault uint8

const (
	// FaultError returns ErrInjected instead of performing the call.
	FaultError Fault = iota
	// FaultHang blocks for Delay (default 30s — effectively forever next
	// to any sane call deadline), then returns ErrInjected. Like every wait
	// here it ends with the call's context, with the context's error.
	FaultHang
	// FaultSlow delays the call by Delay (default 1ms), then performs it.
	FaultSlow
	// FaultCorrupt performs the call and flips one byte of the response
	// payload — an in-flight bit flip: of Data, or of the caller's windows
	// when the payload landed there (rpc.Response.Landed). The node's stored
	// copy is untouched.
	FaultCorrupt
	// FaultDown marks the node down (as if crashed) until Revive; the
	// triggering call and all later calls fail with cluster.ErrNodeDown.
	FaultDown
)

func (f Fault) String() string {
	switch f {
	case FaultError:
		return "error"
	case FaultHang:
		return "hang"
	case FaultSlow:
		return "slow"
	case FaultCorrupt:
		return "corrupt"
	case FaultDown:
		return "down"
	default:
		return "unknown"
	}
}

// Rule injects one fault type for matching calls.
type Rule struct {
	// Node restricts the rule to one node (NodeAny = all).
	Node int
	// Kind restricts the rule to one RPC kind (KindAny = all).
	Kind rpc.Kind
	// Fault is the fault to inject.
	Fault Fault
	// Prob is the per-call injection probability; <= 0 means 1 (always).
	Prob float64
	// Count caps how many times the rule fires; <= 0 means unlimited.
	Count int
	// After skips the first After matching calls before the rule becomes
	// eligible — "fail the third GetBlock" is After: 2, Count: 1.
	After int
	// Delay parameterizes FaultSlow and FaultHang.
	Delay time.Duration
}

func (r Rule) matches(node int, kind rpc.Kind) bool {
	return (r.Node == NodeAny || r.Node == node) && (r.Kind == KindAny || r.Kind == kind)
}

// rule is a Rule plus its firing and skip counts.
type rule struct {
	Rule
	fired   int
	skipped int
}

// Injector implements cluster.Client over an inner transport, injecting
// faults according to its rules and down set.
type Injector struct {
	inner cluster.Client
	seed  int64

	mu       sync.Mutex
	rng      *rand.Rand
	rules    []*rule
	down     []bool
	injected []uint64 // per-node injected fault count

	// Coordinator-crash switch (CrashClientAfter/Reattach).
	crashArmed     bool
	crashKind      rpc.Kind
	crashRemaining int
	crashed        bool
}

// New wraps inner with a fault injector seeded for reproducibility.
func New(inner cluster.Client, seed int64) *Injector {
	n := inner.NumNodes()
	return &Injector{
		inner:    inner,
		seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
		down:     make([]bool, n),
		injected: make([]uint64, n),
	}
}

// Seed returns the injector's seed, for failure logs.
func (in *Injector) Seed() int64 { return in.seed }

// Inner returns the wrapped transport.
func (in *Injector) Inner() cluster.Client { return in.inner }

// NumNodes implements cluster.Client.
func (in *Injector) NumNodes() int { return in.inner.NumNodes() }

// Add installs a rule. Rules are consulted in insertion order; the first
// match that passes its probability draw and count cap fires.
func (in *Injector) Add(r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = append(in.rules, &rule{Rule: r})
}

// ClearRules removes all rules (the down set is kept).
func (in *Injector) ClearRules() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = nil
}

// SetDown marks a node crashed (true) or revived (false).
func (in *Injector) SetDown(node int, down bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.down[node] = down
}

// ReviveAll clears the down set.
func (in *Injector) ReviveAll() {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.down {
		in.down[i] = false
	}
}

// DownNodes returns the currently-downed node ids in order.
func (in *Injector) DownNodes() []int {
	in.mu.Lock()
	defer in.mu.Unlock()
	var out []int
	for i, d := range in.down {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// CrashClientAfter arms the coordinator-crash switch: after n calls
// matching kind (KindAny = every call) have gone through, the injector
// behaves as if the coordinator process died mid-operation — the next
// matching call and every further call, of any kind, fail with
// ErrClientCrashed. n = 0 trips on the first matching call: calls of other
// kinds pass until then, so (KindCommitObject, 0) dies at the commit
// fan-out, not at the operation's first RPC; (KindAny, 0) lets no call
// through at all. Unlike per-node faults, this models the *client* dying: its
// rollback and cleanup attempts fail too, leaving true crash debris on the
// cluster for a fresh coordinator to reconcile. Reattach clears the switch.
func (in *Injector) CrashClientAfter(kind rpc.Kind, n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.crashArmed = true
	in.crashKind = kind
	in.crashRemaining = n
	in.crashed = false
}

// Reattach clears the coordinator-crash switch (simulating a fresh
// coordinator process over the same transport).
func (in *Injector) Reattach() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.crashArmed = false
	in.crashed = false
}

// Crashed reports whether the coordinator-crash switch has tripped.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// Injected returns the number of faults injected against a node.
func (in *Injector) Injected(node int) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected[node]
}

// InjectedTotal sums injected fault counts across nodes.
func (in *Injector) InjectedTotal() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var total uint64
	for _, n := range in.injected {
		total += n
	}
	return total
}

// Call implements cluster.Client. The rule table and RNG are consulted
// under the injector lock; sleeps and the inner call run outside it.
func (in *Injector) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	in.mu.Lock()
	if in.crashed {
		in.mu.Unlock()
		return nil, fmt.Errorf("%w (node %d %s)", ErrClientCrashed, node, req.Kind)
	}
	if in.crashArmed && (in.crashKind == KindAny || in.crashKind == req.Kind) {
		if in.crashRemaining <= 0 {
			in.crashed = true
			in.mu.Unlock()
			return nil, fmt.Errorf("%w (node %d %s)", ErrClientCrashed, node, req.Kind)
		}
		in.crashRemaining--
	}
	if node >= 0 && node < len(in.down) && in.down[node] {
		in.mu.Unlock()
		return nil, fmt.Errorf("%w: %d (faultnet)", cluster.ErrNodeDown, node)
	}
	var fired *rule
	var corruptDraw uint64
	for _, r := range in.rules {
		if !r.matches(node, req.Kind) {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.After > 0 && r.skipped < r.After {
			r.skipped++
			continue
		}
		if p := r.Prob; p > 0 && p < 1 && in.rng.Float64() >= p {
			continue
		}
		r.fired++
		if node >= 0 && node < len(in.injected) {
			in.injected[node]++
		}
		if r.Fault == FaultCorrupt {
			corruptDraw = in.rng.Uint64()
		}
		if r.Fault == FaultDown {
			in.down[node] = true
		}
		fired = r
		break
	}
	in.mu.Unlock()

	if fired == nil {
		return in.inner.Call(node, req)
	}
	switch fired.Fault {
	case FaultError:
		return nil, fmt.Errorf("%w: node %d %s", ErrInjected, node, req.Kind)
	case FaultHang:
		d := fired.Delay
		if d <= 0 {
			d = 30 * time.Second
		}
		if err := sleepCtx(req.Context(), d); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: node %d %s (hung %v)", ErrInjected, node, req.Kind, d)
	case FaultSlow:
		d := fired.Delay
		if d <= 0 {
			d = time.Millisecond
		}
		if err := sleepCtx(req.Context(), d); err != nil {
			return nil, err
		}
		return in.inner.Call(node, req)
	case FaultCorrupt:
		resp, err := in.inner.Call(node, req)
		if err != nil || resp == nil {
			return resp, err
		}
		if windows := resp.Landed(); windows != nil {
			// The payload is already in the caller's memory: flip it there.
			off := corruptDraw % resp.PayloadBytes()
			for _, w := range windows {
				if off < uint64(len(w)) {
					w[off] ^= 0xFF
					break
				}
				off -= uint64(len(w))
			}
			return resp, nil
		}
		if len(resp.Data) == 0 {
			return resp, nil
		}
		// Flip one byte of a copy: the inner transport may alias stored
		// memory, and an in-flight flip must not corrupt the node at rest.
		corrupted := *resp
		corrupted.Data = append([]byte(nil), resp.Data...)
		corrupted.Data[corruptDraw%uint64(len(corrupted.Data))] ^= 0xFF
		return &corrupted, nil
	case FaultDown:
		return nil, fmt.Errorf("%w: %d (faultnet crash)", cluster.ErrNodeDown, node)
	default:
		return in.inner.Call(node, req)
	}
}

// sleepCtx sleeps for d, or until ctx is done, then returning its error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
