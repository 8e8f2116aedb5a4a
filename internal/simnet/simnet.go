// Package simnet provides the deterministic in-process cluster substrate the
// benchmark harness runs on. It stands in for the paper's 9-node CloudLab
// testbed (§6): every byte that crosses the simulated network is produced by
// the real code path (real erasure-coded blocks, real compressed chunks,
// real bitmaps), so traffic volumes are exact; latency is then computed from
// those volumes with a calibrated cost model (disk bandwidth, per-node
// network bandwidth à la wondershaper, RPC RTT, and decode/scan CPU rate).
//
// This preserves the quantities the paper's evaluation reports — who wins,
// by what factor, and where the crossover points sit — while keeping the
// experiments deterministic and laptop-scale. The tcpnet package provides a
// real-socket transport with the same interface for integration testing and
// deployment.
package simnet

import (
	"fmt"
	"sync"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/rpc"
)

// Config holds the cluster and cost-model parameters. The defaults are
// calibrated to the paper's testbed: r6525 machines with NVMe SSDs, 64
// cores, and links shaped to 25 Gb/s (§6 "Configuration").
type Config struct {
	// Nodes is the number of storage nodes (paper default: 9).
	Nodes int
	// DiskBandwidth is per-node disk read bandwidth, bytes/sec.
	DiskBandwidth float64
	// NetBandwidth is per-node ingress/egress bandwidth, bytes/sec.
	NetBandwidth float64
	// RTT is the per-stage round-trip overhead.
	RTT float64 // seconds
	// RPCOverhead is the per-operation request handling cost at the
	// coordinator (marshalling + syscalls), serialized per remote op. It
	// is what makes fetching a chunk in many fragments more expensive
	// than one contiguous read (§3.1's reassembly overhead).
	RPCOverhead float64 // seconds
	// ProcessRate is the decode+scan rate over uncompressed bytes, bytes/sec.
	ProcessRate float64
	// NetCPURate is bytes of network traffic one core processes per second
	// (the "network processing CPU" the paper says reassembly wastes, §1).
	NetCPURate float64
	// Cores is the per-node core count, for utilization accounting.
	Cores int
	// JitterFrac adds deterministic pseudo-random jitter (±frac) to each
	// operation's service time, producing realistic latency tails.
	JitterFrac float64
	// Seed drives the jitter generator.
	Seed int64
}

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig() Config {
	return Config{
		Nodes:         9,
		DiskBandwidth: 2.0e9,    // NVMe sequential read
		NetBandwidth:  25e9 / 8, // 25 Gb/s wondershaper cap
		RTT:           200e-6,   // datacenter RPC round trip
		RPCOverhead:   50e-6,    // per-RPC handling at the coordinator
		ProcessRate:   6.0e9,    // multicore Parquet decode + predicate scan
		NetCPURate:    5e9,      // network stack bytes/core/sec
		Cores:         64,
		JitterFrac:    0.15,
		Seed:          1,
	}
}

// Cluster is an in-process set of storage nodes implementing cluster.Client.
type Cluster struct {
	cfg   Config
	nodes []*cluster.Node

	mu     sync.Mutex
	down   []bool
	cpuSec []float64 // per node accumulated CPU seconds
}

// New builds a simulated cluster with in-memory block stores.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic(fmt.Sprintf("simnet: invalid node count %d", cfg.Nodes))
	}
	c := &Cluster{
		cfg:    cfg,
		down:   make([]bool, cfg.Nodes),
		cpuSec: make([]float64, cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, cluster.NewNode(i, cluster.NewMemStore()))
	}
	return c
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// NumNodes implements cluster.Client.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Node exposes a node for tests and storage audits.
func (c *Cluster) Node(i int) *cluster.Node { return c.nodes[i] }

// Call implements cluster.Client: direct dispatch plus CPU accounting.
func (c *Cluster) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	if node < 0 || node >= len(c.nodes) {
		return nil, fmt.Errorf("simnet: node %d out of range", node)
	}
	c.mu.Lock()
	isDown := c.down[node]
	c.mu.Unlock()
	if isDown {
		return nil, fmt.Errorf("%w: %d", cluster.ErrNodeDown, node)
	}
	resp := c.nodes[node].Handle(req)
	reqB, respB := req.WireSize(), resp.WireSize()
	c.mu.Lock()
	c.cpuSec[node] += float64(resp.Cost.ProcBytes)/c.cfg.ProcessRate +
		float64(reqB+respB)/c.cfg.NetCPURate
	c.mu.Unlock()
	return resp, nil
}

// SetDown marks a node unreachable (failure injection).
func (c *Cluster) SetDown(node int, down bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.down[node] = down
}

// CPUSeconds returns a copy of the per-node CPU second counters.
func (c *Cluster) CPUSeconds() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.cpuSec...)
}

// ResetCPU zeroes the CPU counters.
func (c *Cluster) ResetCPU() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.cpuSec {
		c.cpuSec[i] = 0
	}
}

// TotalStoredBytes sums every node's block bytes — the storage-overhead
// audit used by the FAC overhead experiments.
func (c *Cluster) TotalStoredBytes() uint64 {
	var total uint64
	for _, n := range c.nodes {
		if ms, ok := n.Blocks.(*cluster.MemStore); ok {
			total += ms.TotalBytes()
		}
	}
	return total
}
