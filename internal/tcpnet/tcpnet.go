// Package tcpnet is the real-socket transport: a storage-node server and a
// client implementing cluster.Client against a set of node addresses. A
// frame is two uint32 big-endian lengths — the message's, then its header's
// — followed by that many bytes of one rpc.Request or rpc.Response in the
// binary encoding of internal/rpc (wire.go): the header, then its payload
// region. This package owns only the length prefix and the socket I/O. The
// fusion-server, fusion-cli and fusion-gateway binaries, the repository
// benchmark and the integration tests run on this transport.
package tcpnet

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fusionstore/fusion/internal/bufpool"
	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/rpc"
)

const (
	// maxFrame bounds a single message to guard against corrupt peers.
	maxFrame = 1 << 31
	// maxUpfront bounds what a length alone makes a reader allocate.
	maxUpfront = 4 << 20
	// maxKeepHead is the largest header buffer a connection keeps between
	// frames; a rare larger one (a long ListBlocks reply) is dropped.
	maxKeepHead = 64 << 10
	prefixLen   = 8
)

// framer is one connection's reusable framing scratch, so a frame costs no
// allocation beyond the message itself in the steady state. It is owned by
// whoever owns the connection: the server's per-connection goroutine, or
// the holder of the client's per-node slot.
type framer struct {
	hdr  [prefixLen]byte // the incoming length prefix
	head []byte          // outgoing: length prefix, then the message header
	segs [][]byte        // the outgoing frame in wire order (see rpc.AppendRequest)
	out  net.Buffers     // the view of segs that WriteTo consumes
}

func (f *framer) writeRequest(w io.Writer, req *rpc.Request) error {
	head, segs, err := rpc.AppendRequest(append(f.head[:0], make([]byte, prefixLen)...), f.segs[:0], req)
	return f.write(w, head, segs, err)
}

func (f *framer) writeResponse(w io.Writer, resp *rpc.Response) error {
	head, segs, err := rpc.AppendResponse(append(f.head[:0], make([]byte, prefixLen)...), f.segs[:0], resp)
	return f.write(w, head, segs, err)
}

// write fills in the length prefix that leads head and sends the segments
// in one vectored write (one writev on a TCP connection): payloads go from
// the message's own slices to the socket without passing through head.
func (f *framer) write(w io.Writer, head []byte, segs [][]byte, err error) error {
	if err != nil {
		return err
	}
	n := -prefixLen
	for _, b := range segs {
		n += len(b)
	}
	if n > maxFrame {
		return fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(head, uint32(n))
	binary.BigEndian.PutUint32(head[4:], uint32(len(head)-prefixLen))
	f.out = segs
	_, err = f.out.WriteTo(w)
	clear(segs) // the kept scratch must not pin the message's payloads
	f.segs = segs
	if cap(head) <= maxKeepHead {
		f.head = head
	}
	return err
}

// prefix reads a frame's length prefix: the message's length and its
// header's.
func (f *framer) prefix(r io.Reader) (n, h int, err error) {
	if _, err := io.ReadFull(r, f.hdr[:]); err != nil {
		return 0, 0, err
	}
	n = int(binary.BigEndian.Uint32(f.hdr[:]))
	h = int(binary.BigEndian.Uint32(f.hdr[4:]))
	if n > maxFrame || h > n {
		return 0, 0, fmt.Errorf("tcpnet: frame of %d bytes with a %d-byte header", n, h)
	}
	return n, h, nil
}

// read receives one whole frame body into a buffer from bufpool, rented as
// its bytes arrive (bufpool.ReadAppend). Decoded payloads alias it, so the
// server returns a request frame only once the response is on the wire.
func (f *framer) read(r io.Reader) ([]byte, error) {
	n, _, err := f.prefix(r)
	if err != nil {
		return nil, err
	}
	return bufpool.ReadAppend(r, nil, n, maxUpfront)
}

// readResponse receives the reply to req: its header into a buffer from
// bufpool, then each payload of the region where it belongs
// (rpc.ReadResponse) — a GetBlock's into the caller's windows when it named
// them. The response owns the buffers its payloads alias; nothing here ever
// puts them back: a caller that is done with the bytes may
// (rpc.Response.Release), and one that keeps them, or drops the response,
// leaves them to the collector.
func (f *framer) readResponse(r io.Reader, req *rpc.Request) (*rpc.Response, error) {
	n, h, err := f.prefix(r)
	if err != nil {
		return nil, err
	}
	head, err := bufpool.ReadAppend(r, nil, h, maxUpfront)
	if err != nil {
		return nil, err
	}
	resp := new(rpc.Response)
	if err := rpc.ReadResponse(r, head, n-h, maxUpfront, req, resp); err != nil {
		bufpool.Put(head)
		return nil, err
	}
	return resp, nil
}

// Server wraps a storage node and serves its RPC interface on a listener.
type Server struct {
	node *cluster.Node
	ln   net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewServer starts serving the node on addr (e.g. "127.0.0.1:0") and
// returns immediately; Serve runs in the background.
func NewServer(node *cluster.Node, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: %w", err)
	}
	s := &Server{node: node, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var f framer
	for {
		frame, err := f.read(conn)
		if err != nil {
			return // EOF or broken peer: drop the connection
		}
		// req's payloads alias frame, and the response may alias req, so the
		// frame goes back to the arena only once the response is on the wire.
		// Handle retains none of it: block stores copy or write through (see
		// cluster.BlockStore.Put).
		req := new(rpc.Request)
		if err = rpc.DecodeRequest(frame, req); err == nil {
			err = f.writeResponse(conn, s.node.Handle(req))
		}
		bufpool.Put(frame)
		if err != nil {
			return
		}
	}
}

// Close stops the server and severs open connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// Client implements cluster.Client over TCP connections to node addresses.
// Connections are cached per node; a failed exchange on a pooled connection
// (e.g. the server restarted since the last call) re-dials once and retries
// transparently — safe because every node RPC is idempotent.
//
// A call ends with its caller: it honours the request's context
// (rpc.Request.Context) while it waits for the node's connection, dials, and
// exchanges the frame, and it returns only once it has stopped touching the
// request and the memory it names. A context done mid-exchange puts a past
// deadline on the connection, which fails the read or write in progress; the
// connection, left mid-frame, is then closed.
type Client struct {
	addrs     []string
	ioTimeout atomic.Int64 // a time.Duration
	hist      atomic.Pointer[metrics.HistogramSet]
	nodes     []nodeConn
}

// nodeConn is one node's connection state. Holding slot (a one-token
// semaphore, so a waiter can give up with its context) serializes
// request/response pairs on the connection and guards every field.
type nodeConn struct {
	slot chan struct{}
	conn net.Conn
	f    framer
}

// NewClient returns a client for the given node addresses (node i is
// addrs[i]).
func NewClient(addrs []string) *Client {
	c := &Client{
		addrs: append([]string(nil), addrs...),
		nodes: make([]nodeConn, len(addrs)),
	}
	for i := range c.nodes {
		c.nodes[i].slot = make(chan struct{}, 1)
	}
	return c
}

// SetIOTimeout installs a per-frame read/write deadline on every connection
// (0 disables, the default). It bounds how long a Call can block on a hung
// or partitioned peer; the deadline error surfaces as cluster.ErrNodeDown.
func (c *Client) SetIOTimeout(d time.Duration) { c.ioTimeout.Store(int64(d)) }

// SetMetrics installs per-frame wire timing: every request/response pair
// records its serialize+write and wait+read+decode legs under
// Key{Op: "net.write"/"net.read", Node: node}. The read leg includes the
// server's processing time — comparing it against the node-side
// "node.<kind>" histograms isolates pure network cost. Nil (the default)
// disables timing.
func (c *Client) SetMetrics(h *metrics.HistogramSet) { c.hist.Store(h) }

// NumNodes implements cluster.Client.
func (c *Client) NumNodes() int { return len(c.addrs) }

// exchange performs one request/response pair on nc's connection under ctx,
// applying the per-frame IO deadline when configured and recording per-frame
// timings when a histogram set is installed. The caller holds nc's slot.
func (c *Client) exchange(ctx context.Context, nc *nodeConn, node int, req *rpc.Request) (resp *rpc.Response, err error) {
	conn := nc.conn
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
		defer func() {
			if !stop() && err == nil {
				// The past deadline is set, or about to be, on a connection
				// whose exchange was whole: the reply stands, the
				// connection is spent.
				conn.Close()
				nc.conn = nil
			}
		}()
	}
	timeout := time.Duration(c.ioTimeout.Load())
	hist := c.hist.Load()
	// deadline sets an IO deadline, unless the context is done — its past
	// deadline, set by AfterFunc, must not be moved.
	deadline := func(set func(time.Time) error) error {
		if timeout <= 0 {
			return nil
		}
		if err := set(time.Now().Add(timeout)); err != nil {
			return err
		}
		return ctx.Err()
	}
	if err := deadline(conn.SetWriteDeadline); err != nil {
		return nil, err
	}
	start := time.Time{}
	if hist != nil {
		start = time.Now()
	}
	if err := nc.f.writeRequest(conn, req); err != nil {
		return nil, err
	}
	if hist != nil {
		now := time.Now()
		hist.Observe(metrics.Key{Op: "net.write", Node: node}, now.Sub(start))
		start = now
	}
	if err := deadline(conn.SetReadDeadline); err != nil {
		return nil, err
	}
	resp, err = nc.f.readResponse(conn, req)
	if err != nil {
		return nil, err
	}
	if hist != nil {
		hist.Observe(metrics.Key{Op: "net.read", Node: node}, time.Since(start))
	}
	return resp, nil
}

// Call implements cluster.Client. One in-flight request per node connection;
// parallelism across nodes is what the query stages need. A pooled
// connection that fails mid-exchange is closed and the call retried once on
// a fresh dial, so a server restart between calls is invisible to callers;
// a failure on a freshly-dialed connection is returned as ErrNodeDown. A
// call its context ended returns the context's error.
func (c *Client) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	if node < 0 || node >= len(c.addrs) {
		return nil, fmt.Errorf("tcpnet: node %d out of range", node)
	}
	ctx := req.Context()
	nc := &c.nodes[node]
	select {
	case nc.slot <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-nc.slot }()
	for {
		fresh := nc.conn == nil
		if fresh {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", c.addrs[node])
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				return nil, fmt.Errorf("%w: %d: %v", cluster.ErrNodeDown, node, err)
			}
			nc.conn = conn
		}
		resp, err := c.exchange(ctx, nc, node, req)
		if err == nil {
			return resp, nil
		}
		nc.conn.Close()
		nc.conn = nil
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if fresh {
			return nil, fmt.Errorf("%w: %d: %v", cluster.ErrNodeDown, node, err)
		}
		// Stale pooled connection: loop re-dials exactly once (the retry's
		// connection is fresh, so a second failure returns above).
	}
}

// Close severs all cached connections, waiting for a call in flight on each
// to finish first.
func (c *Client) Close() {
	for i := range c.nodes {
		nc := &c.nodes[i]
		nc.slot <- struct{}{}
		if nc.conn != nil {
			nc.conn.Close()
			nc.conn = nil
		}
		<-nc.slot
	}
}
