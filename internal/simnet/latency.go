package simnet

import (
	"math/rand"
	"sync"
	"time"

	"github.com/fusionstore/fusion/internal/metrics"
)

// LatencyModel converts the measured per-operation byte counts of a query
// stage into a stage latency, following the structure of a real fan-out:
// the coordinator serializes its requests out, nodes work in parallel
// (disk read, decode+scan, reply serialization per node), and the replies
// serialize back through the coordinator's ingress link.
type LatencyModel struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand
}

// NewLatencyModel returns a model with the configuration's jitter seed.
func NewLatencyModel(cfg Config) *LatencyModel {
	return &LatencyModel{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// jitter returns a multiplicative factor 1±JitterFrac.
func (m *LatencyModel) jitter() float64 {
	if m.cfg.JitterFrac == 0 {
		return 1
	}
	m.mu.Lock()
	u := m.rng.Float64()*2 - 1
	m.mu.Unlock()
	return 1 + m.cfg.JitterFrac*u
}

// StageTime computes a stage's latency and phase breakdown from its
// operations' costs. Node-local work (disk read, decode+scan) runs in
// parallel across nodes, so the stage pays the slowest branch; network
// transfers serialize through the coordinator's shaped link (the fan-in
// bottleneck, exactly what wondershaper throttles in §6), so the stage pays
// the sum of request and reply bytes over that link plus one RTT.
func (m *LatencyModel) StageTime(ops []metrics.OpCost) (time.Duration, metrics.Breakdown) {
	if len(ops) == 0 {
		return 0, metrics.Breakdown{}
	}
	cfg := m.cfg
	type branch struct{ disk, proc float64 }
	branches := make(map[int]*branch)
	var localBranch branch
	var coordEgress, coordIngress float64
	remote := false
	remoteOps := 0
	for _, op := range ops {
		disk := float64(op.DiskBytes) / cfg.DiskBandwidth * m.jitter()
		proc := float64(op.ProcBytes) / cfg.ProcessRate * m.jitter()
		if op.Local {
			localBranch.disk += disk
			localBranch.proc += proc
			continue
		}
		remote = true
		remoteOps++
		b := branches[op.Node]
		if b == nil {
			b = &branch{}
			branches[op.Node] = b
		}
		b.disk += disk
		b.proc += proc
		coordEgress += float64(op.ReqBytes) / cfg.NetBandwidth
		coordIngress += float64(op.RespBytes) / cfg.NetBandwidth * m.jitter()
	}
	// The critical branch bounds the parallel node-local section.
	crit := localBranch
	for _, b := range branches {
		if b.disk+b.proc > crit.disk+crit.proc {
			crit = *b
		}
	}
	var netTime float64
	if remote {
		netTime = cfg.RTT + float64(remoteOps)*cfg.RPCOverhead + coordEgress + coordIngress
	}
	total := crit.disk + crit.proc + netTime
	bd := metrics.Breakdown{
		DiskRead:   secs(crit.disk),
		Processing: secs(crit.proc),
		Network:    secs(netTime),
	}
	return secs(total), bd
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// ClientLeg returns the fixed cost of the client round trip: one RTT plus
// the result bytes over the coordinator's link.
func (m *LatencyModel) ClientLeg(resultBytes uint64) time.Duration {
	return secs(m.cfg.RTT + float64(resultBytes)/m.cfg.NetBandwidth*m.jitter())
}

// QueryTime prices a query's cost ledger (store.QueryStats.Stages): the
// filter stage, then the projection stage, then the client leg — the query
// arrives at and its result leaves the coordinator over the network (the
// paper's dedicated client node, §6), so every query pays at least one RTT
// plus the result transfer. The order is fixed: the three draw from one
// jitter stream.
func (m *LatencyModel) QueryTime(stages [2][]metrics.OpCost, resultBytes uint64) metrics.LatencySample {
	t1, phase := m.StageTime(stages[0])
	t2, b2 := m.StageTime(stages[1])
	phase.Add(b2)
	client := m.ClientLeg(resultBytes)
	phase.Network += client
	return metrics.LatencySample{Total: t1 + t2 + client, Phase: phase}
}
