package tcpnet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/bufpool"
	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/tpch"
)

// stallProxy forwards connections to a server. Once armed with a budget, it
// passes that many more bytes of the server's replies and holds the rest —
// a reply stuck mid-payload on a slow link — until release; stalled is
// closed when the hold begins. Unarmed, and after release, it passes
// everything.
type stallProxy struct {
	ln      net.Listener
	target  string
	stalled chan struct{}
	release chan struct{}
	conns   atomic.Int32

	mu       sync.Mutex
	budget   int // bytes still let through; -1: no limit
	held     bool
	released bool
	open     []net.Conn
}

func startStallProxy(t *testing.T, target string) *stallProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stallProxy{ln: ln, target: target, budget: -1, stalled: make(chan struct{}), release: make(chan struct{})}
	go p.serve()
	t.Cleanup(func() {
		ln.Close()
		p.unhold()
		p.mu.Lock()
		for _, c := range p.open {
			c.Close()
		}
		p.mu.Unlock()
	})
	return p
}

func (p *stallProxy) addr() string { return p.ln.Addr().String() }

func (p *stallProxy) arm(budget int) {
	p.mu.Lock()
	p.budget = budget
	p.mu.Unlock()
}

// unhold ends the hold, at most once.
func (p *stallProxy) unhold() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.released {
		p.released = true
		p.budget = -1
		close(p.release)
	}
}

// allow returns how many of n bytes may pass now, holding while the budget
// is spent.
func (p *stallProxy) allow(n int) int {
	p.mu.Lock()
	if p.budget == 0 {
		if !p.held {
			p.held = true
			close(p.stalled)
		}
		p.mu.Unlock()
		<-p.release
		return n
	}
	defer p.mu.Unlock()
	if p.budget < 0 {
		return n
	}
	n = min(n, p.budget)
	p.budget -= n
	return n
}

func (p *stallProxy) serve() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", p.target)
		if err != nil {
			client.Close()
			continue
		}
		p.mu.Lock()
		p.open = append(p.open, client, server)
		p.mu.Unlock()
		p.conns.Add(1)
		go func() {
			_, _ = io.Copy(server, client)
			server.Close()
		}()
		go func() {
			defer client.Close()
			buf := make([]byte, 32<<10)
			for {
				n, err := server.Read(buf)
				for b := buf[:n]; len(b) > 0; {
					m := p.allow(len(b))
					if _, err := client.Write(b[:m]); err != nil {
						return
					}
					b = b[m:]
				}
				if err != nil {
					return
				}
			}
		}()
	}
}

// TestCallEndsWithCaller is the transport's half of "no call outlives its
// caller", under pool poisoning (and -race in CI). A GetBlock reply is held
// mid-payload, part of it already landed in the caller's windows, when the
// caller's context is cancelled — or, in the second leg, when the attempt's
// own deadline (Policy.Timeout) expires. The call returns the context's
// error (ErrCallTimeout for the deadline), and the windows never change
// after it has: the rest of the reply, let through only then, finds nobody
// reading. The next call to the node dials a fresh connection and lands its
// whole reply. The third leg cancels a whole-object Get while one node's
// prefetch frame is held the same way: the Get returns the context's error,
// and the next Get, on a fresh connection to that node, returns the object.
func TestCallEndsWithCaller(t *testing.T) {
	defer bufpool.SetPoison(bufpool.SetPoison(true))
	block := make([]byte, 1<<20)
	rand.New(rand.NewSource(35)).Read(block)
	legs := []struct {
		name   string
		policy cluster.Policy
		cancel bool
		want   error
	}{
		{"cancelled", cluster.Policy{MaxAttempts: 1}, true, context.Canceled},
		{"attempt deadline", cluster.Policy{MaxAttempts: 1, Timeout: 100 * time.Millisecond}, false, cluster.ErrCallTimeout},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			direct, servers := startCluster(t, 1)
			if resp, err := direct.Call(0, &rpc.Request{Kind: rpc.KindPutBlock, BlockID: "b", Data: block}); err != nil || resp.Err != "" {
				t.Fatalf("put: %v", err)
			}
			proxy := startStallProxy(t, servers[0].Addr())
			client := NewClient([]string{proxy.addr()})
			defer client.Close()

			buf := bytes.Repeat([]byte{0xEE}, len(block))
			req := &rpc.Request{Kind: rpc.KindGetBlock, BlockID: "b"}
			req.LandIn(buf[:300<<10], buf[300<<10:])
			proxy.arm(256 << 10)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if leg.cancel {
				go cancelWhenHeld(proxy, cancel)
			}
			if _, _, err := cluster.CallRetryCtx(ctx, client, 0, req, leg.policy); !errors.Is(err, leg.want) {
				t.Fatalf("call returned %v, want %v", err, leg.want)
			}
			if !bytes.Equal(buf[:128<<10], block[:128<<10]) {
				t.Fatal("the reply had not started landing when the call ended: the leg proves nothing")
			}
			snapshot := bytes.Clone(buf)
			proxy.unhold()
			time.Sleep(50 * time.Millisecond) // what a late writer would need
			if !bytes.Equal(buf, snapshot) {
				t.Fatal("a window changed after the call had returned")
			}

			again := make([]byte, len(block))
			req = &rpc.Request{Kind: rpc.KindGetBlock, BlockID: "b"}
			req.LandIn(again)
			resp, _, err := cluster.CallRetryCtx(context.Background(), client, 0, req, cluster.Policy{MaxAttempts: 1})
			if err != nil || resp.Err != "" || resp.Data != nil || !bytes.Equal(again, block) {
				t.Fatalf("the next call to the node did not land its reply (err %v)", err)
			}
			if n := proxy.conns.Load(); n != 2 {
				t.Fatalf("%d connections to the node, want the ended one and a fresh one", n)
			}
		})
	}

	t.Run("Get cancelled", func(t *testing.T) {
		cfg := tpch.DefaultConfig()
		cfg.RowsPerGroup = 5000
		data, err := tpch.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, servers := startCluster(t, 9)
		proxy := startStallProxy(t, servers[0].Addr())
		addrs := []string{proxy.addr()}
		for _, srv := range servers[1:] {
			addrs = append(addrs, srv.Addr())
		}
		client := NewClient(addrs)
		defer client.Close()
		s, err := store.New(client, store.FusionOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put("lineitem", data); err != nil {
			t.Fatal(err)
		}
		conns := proxy.conns.Load()
		proxy.arm(64 << 10)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go cancelWhenHeld(proxy, cancel)
		if _, err := s.GetContext(ctx, "lineitem", 0, 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Get returned %v, want the context's error", err)
		}
		proxy.unhold()
		if got, err := s.Get("lineitem", 0, 0); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get after a cancelled one: wrong bytes (err %v)", err)
		}
		if n := proxy.conns.Load(); n != conns+1 {
			t.Fatalf("%d connections to node 0 after the cancelled Get, want %d: the one it ended and a fresh one", n, conns+1)
		}
	})
}

// cancelWhenHeld cancels once the proxy holds a reply and the bytes it let
// through have had time to be read.
func cancelWhenHeld(p *stallProxy, cancel context.CancelFunc) {
	<-p.stalled
	time.Sleep(20 * time.Millisecond)
	cancel()
}
