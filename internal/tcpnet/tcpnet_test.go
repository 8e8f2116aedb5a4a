package tcpnet

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/store"
)

// startCluster brings up n real TCP storage nodes and a client.
func startCluster(t *testing.T, n int) (*Client, []*Server) {
	t.Helper()
	var servers []*Server
	var addrs []string
	for i := 0; i < n; i++ {
		srv, err := NewServer(cluster.NewNode(i, cluster.NewMemStore()), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	client := NewClient(addrs)
	t.Cleanup(func() {
		client.Close()
		for _, s := range servers {
			s.Close()
		}
	})
	return client, servers
}

func TestBasicRoundTrip(t *testing.T) {
	client, _ := startCluster(t, 2)
	resp, err := client.Call(0, &rpc.Request{Kind: rpc.KindPutBlock, BlockID: "b", Data: []byte("payload")})
	if err != nil || resp.Err != "" {
		t.Fatalf("put: %v %s", err, resp.Err)
	}
	resp, err = client.Call(0, &rpc.Request{Kind: rpc.KindGetBlock, BlockID: "b", Offset: 3, Length: 4})
	if err != nil || string(resp.Data) != "load" {
		t.Fatalf("get: %v %q", err, resp.Data)
	}
	// Application errors travel as Response.Err, not transport errors.
	resp, err = client.Call(1, &rpc.Request{Kind: rpc.KindGetBlock, BlockID: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" {
		t.Fatal("node 1 must not have the block")
	}
}

func TestNodeDown(t *testing.T) {
	client, servers := startCluster(t, 2)
	servers[1].Close()
	_, err := client.Call(1, &rpc.Request{Kind: rpc.KindPing})
	if !errors.Is(err, cluster.ErrNodeDown) {
		t.Fatalf("want ErrNodeDown, got %v", err)
	}
	// Node 0 must still work.
	if _, err := client.Call(0, &rpc.Request{Kind: rpc.KindPing}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	client, _ := startCluster(t, 3)
	var wg sync.WaitGroup
	errs := make(chan error, 60)
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			node := i % 3
			id := fmt.Sprintf("blk-%d", i)
			payload := bytes.Repeat([]byte{byte(i)}, 1000+i)
			if resp, err := client.Call(node, &rpc.Request{Kind: rpc.KindPutBlock, BlockID: id, Data: payload}); err != nil || resp.Err != "" {
				errs <- fmt.Errorf("put %d: %v %s", i, err, resp.Err)
				return
			}
			resp, err := client.Call(node, &rpc.Request{Kind: rpc.KindGetBlock, BlockID: id})
			if err != nil || !bytes.Equal(resp.Data, payload) {
				errs <- fmt.Errorf("get %d mismatch: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestLargePayload(t *testing.T) {
	client, _ := startCluster(t, 1)
	big := make([]byte, 8<<20)
	rand.New(rand.NewSource(1)).Read(big)
	if resp, err := client.Call(0, &rpc.Request{Kind: rpc.KindPutBlock, BlockID: "big", Data: big}); err != nil || resp.Err != "" {
		t.Fatalf("put: %v", err)
	}
	resp, err := client.Call(0, &rpc.Request{Kind: rpc.KindGetBlock, BlockID: "big"})
	if err != nil || !bytes.Equal(resp.Data, big) {
		t.Fatalf("get mismatch: %v", err)
	}
}

// TestEndToEndStoreOverTCP runs the full Fusion store over real sockets:
// put an object, query it, read it back, and survive a node failure.
func TestEndToEndStoreOverTCP(t *testing.T) {
	client, servers := startCluster(t, 9)
	opts := store.FusionOptions()
	opts.StorageBudget = 0.5 // small test object
	s, err := store.New(client, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Build a small object.
	schema := []lpq.Column{{Name: "k", Type: lpq.Int64}, {Name: "name", Type: lpq.String}}
	var ks []int64
	var names []string
	for i := 0; i < 3000; i++ {
		ks = append(ks, int64(i))
		names = append(names, fmt.Sprintf("user-%d", i%100))
	}
	w := lpq.NewWriter(schema, lpq.DefaultWriterOptions())
	if err := w.WriteRowGroup([]lpq.ColumnData{lpq.IntColumn(ks[:1500]), lpq.StringColumn(names[:1500])}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRowGroup([]lpq.ColumnData{lpq.IntColumn(ks[1500:]), lpq.StringColumn(names[1500:])}); err != nil {
		t.Fatal(err)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("users", data); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("SELECT k FROM users WHERE name = 'user-42'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 30 {
		t.Fatalf("rows = %d, want 30", res.Rows)
	}
	got, err := s.Get("users", 0, 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get: %v", err)
	}
	// Kill one node: degraded query and read must still work.
	servers[4].Close()
	res, err = s.Query("SELECT k FROM users WHERE name = 'user-42'")
	if err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	if res.Rows != 30 {
		t.Fatalf("degraded rows = %d", res.Rows)
	}
	got, err = s.Get("users", 100, uint64(len(data)/2))
	if err != nil || !bytes.Equal(got, data[100:100+len(data)/2]) {
		t.Fatalf("degraded Get: %v", err)
	}
}

// TestStaleConnReDial is the regression test for re-dialing a stale pooled
// connection: the server is killed and restarted on the same address between
// two calls, so the pooled connection is dead at the second call, which must
// succeed transparently on a single re-dial.
func TestStaleConnReDial(t *testing.T) {
	node := cluster.NewNode(0, cluster.NewMemStore())
	srv, err := NewServer(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	client := NewClient([]string{addr})
	defer client.Close()
	if resp, err := client.Call(0, &rpc.Request{Kind: rpc.KindPutBlock, BlockID: "b", Data: []byte("stays")}); err != nil || resp.Err != "" {
		t.Fatalf("put: %v", err)
	}
	// Restart on the same port; the client's pooled connection is now stale.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(node, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	resp, err := client.Call(0, &rpc.Request{Kind: rpc.KindGetBlock, BlockID: "b"})
	if err != nil {
		t.Fatalf("call after restart must re-dial transparently: %v", err)
	}
	if string(resp.Data) != "stays" {
		t.Fatalf("got %q after restart", resp.Data)
	}
}

// TestStaleConnServerStaysDown is the companion: if the re-dial also fails
// (the server never came back), the call must surface ErrNodeDown rather
// than loop.
func TestStaleConnServerStaysDown(t *testing.T) {
	srv, err := NewServer(cluster.NewNode(0, cluster.NewMemStore()), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient([]string{srv.Addr()})
	defer client.Close()
	if _, err := client.Call(0, &rpc.Request{Kind: rpc.KindPing}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := client.Call(0, &rpc.Request{Kind: rpc.KindPing}); !errors.Is(err, cluster.ErrNodeDown) {
		t.Fatalf("want ErrNodeDown after failed re-dial, got %v", err)
	}
}

// TestIOTimeoutSurfacesNodeDown verifies the per-frame deadline: a peer that
// accepts connections but never answers must fail the call within the IO
// timeout instead of blocking forever.
func TestIOTimeoutSurfacesNodeDown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // accept and hold connections without ever responding
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	client := NewClient([]string{ln.Addr().String()})
	defer client.Close()
	client.SetIOTimeout(50 * time.Millisecond)
	start := time.Now()
	_, err = client.Call(0, &rpc.Request{Kind: rpc.KindPing})
	if !errors.Is(err, cluster.ErrNodeDown) {
		t.Fatalf("want ErrNodeDown on deadline, got %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("deadline call took %v, want ~50ms", d)
	}
}
