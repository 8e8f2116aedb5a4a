package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// NodeHealth is one node's reliability counters as seen from a coordinator:
// how often it was called, how often calls failed or timed out, how many
// retries it cost, and how many blocks it served failed their checksum.
type NodeHealth struct {
	Calls     uint64
	Failures  uint64
	Retries   uint64
	Timeouts  uint64
	Checksums uint64
}

// add accumulates another node's counters.
func (n *NodeHealth) add(o NodeHealth) {
	n.Calls += o.Calls
	n.Failures += o.Failures
	n.Retries += o.Retries
	n.Timeouts += o.Timeouts
	n.Checksums += o.Checksums
}

// Health collects per-node call/failure/retry/timeout/checksum counters. All
// methods are safe for concurrent use and safe on a nil receiver (a nil
// *Health records nothing), so callers can thread an optional recorder without
// nil checks.
type Health struct {
	mu    sync.Mutex
	nodes map[int]*NodeHealth
}

// NewHealth returns an empty recorder.
func NewHealth() *Health {
	return &Health{nodes: make(map[int]*NodeHealth)}
}

func (h *Health) node(id int) *NodeHealth {
	n := h.nodes[id]
	if n == nil {
		n = &NodeHealth{}
		h.nodes[id] = n
	}
	return n
}

func (h *Health) record(id int, f func(*NodeHealth)) {
	if h == nil {
		return
	}
	h.mu.Lock()
	f(h.node(id))
	h.mu.Unlock()
}

// Call records one attempt against a node.
func (h *Health) Call(node int) { h.record(node, func(n *NodeHealth) { n.Calls++ }) }

// Failure records a transport-level failure.
func (h *Health) Failure(node int) { h.record(node, func(n *NodeHealth) { n.Failures++ }) }

// Retry records a retried attempt (counted before the attempt runs).
func (h *Health) Retry(node int) { h.record(node, func(n *NodeHealth) { n.Retries++ }) }

// Timeout records an attempt that ran out its deadline.
func (h *Health) Timeout(node int) { h.record(node, func(n *NodeHealth) { n.Timeouts++ }) }

// Checksum records a block from the node that failed its checksum: rot at
// rest or a reply corrupted in flight.
func (h *Health) Checksum(node int) { h.record(node, func(n *NodeHealth) { n.Checksums++ }) }

// Node returns a snapshot of one node's counters.
func (h *Health) Node(node int) NodeHealth {
	if h == nil {
		return NodeHealth{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if n := h.nodes[node]; n != nil {
		return *n
	}
	return NodeHealth{}
}

// Snapshot returns a copy of every node's counters.
func (h *Health) Snapshot() map[int]NodeHealth {
	out := make(map[int]NodeHealth)
	if h == nil {
		return out
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for id, n := range h.nodes {
		out[id] = *n
	}
	return out
}

// Total sums the counters across all nodes.
func (h *Health) Total() NodeHealth {
	var sum NodeHealth
	if h == nil {
		return sum
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, n := range h.nodes {
		sum.add(*n)
	}
	return sum
}

// Reset zeroes all counters.
func (h *Health) Reset() {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nodes = make(map[int]*NodeHealth)
}

// String renders the non-zero nodes in id order, for failure diagnostics.
func (h *Health) String() string {
	snap := h.Snapshot()
	ids := make([]int, 0, len(snap))
	for id := range snap {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, id := range ids {
		n := snap[id]
		fmt.Fprintf(&b, "node %d: calls %d fail %d retry %d timeout %d checksums %d\n",
			id, n.Calls, n.Failures, n.Retries, n.Timeouts, n.Checksums)
	}
	return b.String()
}
