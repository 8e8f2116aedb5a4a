package simnet

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/rpc"
)

func TestClusterDispatch(t *testing.T) {
	cl := New(Config{Nodes: 3, ProcessRate: 1e9, NetCPURate: 1e9})
	resp, err := cl.Call(1, &rpc.Request{Kind: rpc.KindPutBlock, BlockID: "b", Data: []byte("hi")})
	if err != nil || resp.Err != "" {
		t.Fatalf("Call: %v %s", err, resp.Err)
	}
	resp, err = cl.Call(1, &rpc.Request{Kind: rpc.KindGetBlock, BlockID: "b"})
	if err != nil || string(resp.Data) != "hi" {
		t.Fatalf("Get: %v %q", err, resp.Data)
	}
	// Block lives only on node 1.
	resp, err = cl.Call(0, &rpc.Request{Kind: rpc.KindGetBlock, BlockID: "b"})
	if err != nil || resp.Err == "" {
		t.Fatal("node 0 must not have the block")
	}
	if _, err := cl.Call(9, &rpc.Request{Kind: rpc.KindPing}); err == nil {
		t.Fatal("out-of-range node must fail")
	}
}

func TestClusterFailureInjection(t *testing.T) {
	cl := New(Config{Nodes: 2, ProcessRate: 1e9, NetCPURate: 1e9})
	cl.SetDown(0, true)
	if _, err := cl.Call(0, &rpc.Request{Kind: rpc.KindPing}); !errors.Is(err, cluster.ErrNodeDown) {
		t.Fatalf("want ErrNodeDown, got %v", err)
	}
	cl.SetDown(0, false)
	if _, err := cl.Call(0, &rpc.Request{Kind: rpc.KindPing}); err != nil {
		t.Fatalf("revived node must answer: %v", err)
	}
}

func TestCPUAccounting(t *testing.T) {
	cl := New(Config{Nodes: 2, ProcessRate: 1e9, NetCPURate: 1e9})
	cl.Call(1, &rpc.Request{Kind: rpc.KindPutBlock, BlockID: "b", Data: make([]byte, 1000)})
	cpu := cl.CPUSeconds()
	if cpu[0] != 0 || cpu[1] < 1000/1e9 {
		t.Fatalf("CPUSeconds = %v", cpu)
	}
	cl.ResetCPU()
	if cl.CPUSeconds()[1] != 0 {
		t.Fatal("ResetCPU must zero counters")
	}
}

// TestCPUChargesWireBytes: a call with no processing work still costs its
// node the wire bytes at NetCPURate, and a call to a down node costs nothing.
func TestCPUChargesWireBytes(t *testing.T) {
	cl := New(Config{Nodes: 2, ProcessRate: 1e9, NetCPURate: 1e6})
	req := &rpc.Request{Kind: rpc.KindPing}
	resp, err := cl.Call(0, req)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(req.WireSize()+resp.WireSize()) / 1e6
	if got := cl.CPUSeconds()[0]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("ping charged %v CPU seconds, want %v", got, want)
	}
	cl.SetDown(1, true)
	cl.Call(1, &rpc.Request{Kind: rpc.KindPutBlock, BlockID: "b", Data: make([]byte, 1000)})
	if got := cl.CPUSeconds()[1]; got != 0 {
		t.Fatalf("down node charged %v CPU seconds", got)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Nodes != 9 {
		t.Fatalf("paper default is 9 nodes, got %d", cfg.Nodes)
	}
	if cfg.NetBandwidth != 25e9/8 {
		t.Fatal("default bandwidth must be 25 Gb/s")
	}
	cl := New(cfg)
	if cl.NumNodes() != 9 || cl.Config().Cores != 64 {
		t.Fatal("cluster must reflect config")
	}
}

func TestStageTimeParallelism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterFrac = 0
	m := NewLatencyModel(cfg)
	oneOp := []metrics.OpCost{{Node: 0, DiskBytes: 1 << 30, ProcBytes: 0, RespBytes: 100, ReqBytes: 100}}
	tOne, _ := m.StageTime(oneOp)
	// The same disk work split across 4 nodes must be ~4x faster.
	fourOps := make([]metrics.OpCost, 4)
	for i := range fourOps {
		fourOps[i] = metrics.OpCost{Node: i, DiskBytes: 1 << 28, RespBytes: 25, ReqBytes: 25}
	}
	tFour, _ := m.StageTime(fourOps)
	if tFour >= tOne {
		t.Fatalf("parallel disk work must be faster: %v vs %v", tFour, tOne)
	}
	ratio := float64(tOne) / float64(tFour)
	if ratio < 3 || ratio > 5 {
		t.Fatalf("4-way parallel speedup was %.1fx", ratio)
	}
}

func TestStageTimeNetworkSerializes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterFrac = 0
	m := NewLatencyModel(cfg)
	// Two ops on different nodes, but the replies share the coordinator's
	// ingress link: doubling reply bytes must roughly double network time.
	small := []metrics.OpCost{{Node: 0, RespBytes: 1 << 30}}
	big := []metrics.OpCost{{Node: 0, RespBytes: 1 << 30}, {Node: 1, RespBytes: 1 << 30}}
	tSmall, bdSmall := m.StageTime(small)
	tBig, bdBig := m.StageTime(big)
	if bdBig.Network <= bdSmall.Network {
		t.Fatal("more reply bytes must mean more network time")
	}
	ratio := float64(tBig) / float64(tSmall)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("fan-in serialization ratio was %.2f", ratio)
	}
}

func TestStageTimeLocalOpsSkipNetwork(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterFrac = 0
	m := NewLatencyModel(cfg)
	local := []metrics.OpCost{{Local: true, ProcBytes: 1 << 30}}
	tLocal, bd := m.StageTime(local)
	if bd.Network != 0 {
		t.Fatalf("local ops must not pay network: %v", bd)
	}
	want := time.Duration(float64(1<<30) / cfg.ProcessRate * float64(time.Second))
	if tLocal < want*9/10 || tLocal > want*11/10 {
		t.Fatalf("local proc time %v, want ≈%v", tLocal, want)
	}
}

func TestStageTimeEmpty(t *testing.T) {
	m := NewLatencyModel(DefaultConfig())
	d, bd := m.StageTime(nil)
	if d != 0 || bd.Total() != 0 {
		t.Fatal("empty stage must be free")
	}
}

func TestBandwidthSweepMonotone(t *testing.T) {
	// Fig. 14c's premise: lower bandwidth means higher stage latency for
	// transfer-heavy stages.
	var prev time.Duration
	for i, gbps := range []float64{100, 50, 25, 10} {
		cfg := DefaultConfig()
		cfg.JitterFrac = 0
		cfg.NetBandwidth = gbps * 1e9 / 8
		m := NewLatencyModel(cfg)
		d, _ := m.StageTime([]metrics.OpCost{{Node: 0, RespBytes: 1 << 30}})
		if i > 0 && d <= prev {
			t.Fatalf("latency must grow as bandwidth shrinks: %v then %v", prev, d)
		}
		prev = d
	}
}

func TestJitterDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	ops := []metrics.OpCost{{Node: 0, DiskBytes: 1 << 20, ProcBytes: 1 << 20, RespBytes: 1 << 20}}
	m1 := NewLatencyModel(cfg)
	m2 := NewLatencyModel(cfg)
	for i := 0; i < 10; i++ {
		d1, _ := m1.StageTime(ops)
		d2, _ := m2.StageTime(ops)
		if d1 != d2 {
			t.Fatal("same seed must give identical jitter sequences")
		}
	}
}

// QueryTime is the filter stage, the projection stage and the client leg, drawn
// from the jitter stream in that order: the simulated figures of EXPERIMENTS.md
// depend on the order as much as on the formula.
func TestQueryTimeIsStagesThenClientLeg(t *testing.T) {
	cfg := DefaultConfig()
	stages := [2][]metrics.OpCost{
		{{Node: 0, ReqBytes: 100, RespBytes: 1 << 20, DiskBytes: 1 << 22, ProcBytes: 1 << 24}},
		{{Node: 1, ReqBytes: 100, RespBytes: 1 << 22, DiskBytes: 1 << 20}, {Local: true, ProcBytes: 1 << 23}},
	}
	got := NewLatencyModel(cfg).QueryTime(stages, 1<<16)
	m := NewLatencyModel(cfg)
	t1, b1 := m.StageTime(stages[0])
	t2, b2 := m.StageTime(stages[1])
	client := m.ClientLeg(1 << 16)
	b1.Add(b2)
	b1.Network += client
	if want := (metrics.LatencySample{Total: t1 + t2 + client, Phase: b1}); got != want {
		t.Fatalf("QueryTime = %+v, want %+v", got, want)
	}
}

func TestTotalStoredBytes(t *testing.T) {
	cl := New(Config{Nodes: 2, ProcessRate: 1e9, NetCPURate: 1e9})
	cl.Call(0, &rpc.Request{Kind: rpc.KindPutBlock, BlockID: "a", Data: make([]byte, 100)})
	cl.Call(1, &rpc.Request{Kind: rpc.KindPutBlock, BlockID: "b", Data: make([]byte, 50)})
	if cl.TotalStoredBytes() != 150 {
		t.Fatalf("TotalStoredBytes = %d", cl.TotalStoredBytes())
	}
}
