package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/tcpnet"
)

// numNodes is the cluster size: RS(9,6) puts one block of a stripe on each.
const numNodes = 9

// span is one tapped call, in the shape written to -trace-out. Op is the
// index of the benchmark operation in flight when the call was made; the
// traced pass is serial, so every call between an op's start and end
// belongs to it.
type span struct {
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Node    int    `json:"node"`
	Kind    string `json:"kind"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Bytes   uint64 `json:"bytes"`
}

// callRec is what the client tap keeps per coordinator→node call.
type callRec struct {
	op         int
	node       int
	kind       rpc.Kind
	start, end int64
	reqBytes   uint64
	respBytes  uint64
	cost       rpc.Cost
	// req is kept for read-side calls only, to replay them into the node's
	// handler without a socket. Write-side requests carry the object's
	// bytes and would pin every block ever written.
	req *rpc.Request
}

// recorder collects the taps of a traced pass in memory.
type recorder struct {
	on    atomic.Bool
	op    atomic.Int64
	epoch time.Time

	mu     sync.Mutex
	calls  []callRec
	blocks []span
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// tapClient wraps the transport. The byte and call counters are always on —
// net_bytes_per_op is an end-to-end metric — and cost two atomic adds per
// call; span recording is on only during a traced pass.
type tapClient struct {
	inner cluster.Client
	rec   *recorder

	calls     atomic.Uint64
	wireBytes atomic.Uint64
}

func (c *tapClient) NumNodes() int { return c.inner.NumNodes() }

func (c *tapClient) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	on := c.rec.on.Load()
	rec := callRec{node: node, kind: req.Kind, reqBytes: req.WireSize()}
	if on {
		rec.op, rec.start = int(c.rec.op.Load()), c.rec.now()
	}
	resp, err := c.inner.Call(node, req)
	if resp != nil {
		rec.respBytes, rec.cost = resp.WireSize(), resp.Cost
	}
	c.calls.Add(1)
	c.wireBytes.Add(rec.reqBytes + rec.respBytes)
	if on {
		rec.end = c.rec.now()
		if readSide(req.Kind) {
			rec.req = req
		}
		c.rec.mu.Lock()
		c.rec.calls = append(c.rec.calls, rec)
		c.rec.mu.Unlock()
	}
	return resp, err
}

// readSide reports whether replaying a request into a node leaves the node
// unchanged.
func readSide(k rpc.Kind) bool {
	switch k {
	case rpc.KindGetBlock, rpc.KindBlockSize, rpc.KindFilter, rpc.KindProject, rpc.KindAggregate,
		rpc.KindGroupAgg, rpc.KindTopK, rpc.KindBatch, rpc.KindPing:
		return true
	}
	return false
}

// tapStore wraps one node's block store; it times calls only during a
// traced pass.
type tapStore struct {
	*cluster.MemStore
	node int
	rec  *recorder
}

// begin returns the start time of a tapped block-store call, and whether
// the call is being recorded at all.
func (s *tapStore) begin() (start int64, on bool) {
	if !s.rec.on.Load() {
		return 0, false
	}
	return s.rec.now(), true
}

func (s *tapStore) record(kind string, start int64, bytes int) {
	sp := span{Op: int(s.rec.op.Load()), Name: "blockstore", Node: s.node, Kind: kind,
		StartNS: start, EndNS: s.rec.now(), Bytes: uint64(bytes)}
	s.rec.mu.Lock()
	s.rec.blocks = append(s.rec.blocks, sp)
	s.rec.mu.Unlock()
}

func (s *tapStore) Put(id string, data []byte) error {
	start, on := s.begin()
	err := s.MemStore.Put(id, data)
	if on {
		s.record("Put", start, len(data))
	}
	return err
}

func (s *tapStore) Get(id string, offset, length uint64) ([]byte, error) {
	start, on := s.begin()
	b, err := s.MemStore.Get(id, offset, length)
	if on {
		s.record("Get", start, len(b))
	}
	return b, err
}

func (s *tapStore) Size(id string) (uint64, error) {
	start, on := s.begin()
	n, err := s.MemStore.Size(id)
	if on {
		s.record("Size", start, 0)
	}
	return n, err
}

func (s *tapStore) Delete(id string) error {
	start, on := s.begin()
	err := s.MemStore.Delete(id)
	if on {
		s.record("Delete", start, 0)
	}
	return err
}

// env is one running system under test: nine storage nodes on loopback
// sockets over in-memory block stores (no device in the loop) and one
// coordinator configured as shipped.
type env struct {
	rec     *recorder
	nodes   []*cluster.Node
	blocks  []*tapStore
	servers []*tcpnet.Server
	tcp     *tcpnet.Client
	client  *tapClient
	store   *store.Store
}

// newEnv starts the nodes and builds the coordinator.
func newEnv() (*env, error) {
	e := &env{rec: &recorder{epoch: time.Now()}}
	e.rec.op.Store(-1)
	addrs := make([]string, numNodes)
	for i := 0; i < numNodes; i++ {
		bs := &tapStore{MemStore: cluster.NewMemStore(), node: i, rec: e.rec}
		node := cluster.NewNode(i, bs)
		srv, err := tcpnet.NewServer(node, "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, fmt.Errorf("starting node %d: %w", i, err)
		}
		e.blocks = append(e.blocks, bs)
		e.nodes = append(e.nodes, node)
		e.servers = append(e.servers, srv)
		addrs[i] = srv.Addr()
	}
	e.tcp = tcpnet.NewClient(addrs)
	e.client = &tapClient{inner: e.tcp, rec: e.rec}
	s, err := store.New(e.client, store.FusionOptions())
	if err != nil {
		e.close()
		return nil, fmt.Errorf("building coordinator: %w", err)
	}
	e.store = s
	return e, nil
}

// close severs the client's connections and stops every node, waiting for
// their goroutines.
func (e *env) close() {
	if e.tcp != nil {
		e.tcp.Close()
	}
	for _, s := range e.servers {
		_ = s.Close() // the listener's close error changes nothing at teardown
	}
}

// storedBytes sums the bytes held by every node's block store.
func (e *env) storedBytes() uint64 {
	var n uint64
	for _, b := range e.blocks {
		n += b.TotalBytes()
	}
	return n
}
