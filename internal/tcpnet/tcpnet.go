// Package tcpnet is the real-socket transport: a storage-node server and a
// client implementing cluster.Client against a set of node addresses. A
// frame is a uint32 big-endian length followed by that many bytes of one
// rpc.Request or rpc.Response in the binary encoding of internal/rpc
// (wire.go); this package owns only the length prefix and the socket I/O.
// The fusion-server, fusion-cli and fusion-gateway binaries, the repository
// benchmark and the integration tests run on this transport.
package tcpnet

import (
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
	// maxUpfront bounds what a length prefix alone makes a reader allocate.
	maxUpfront = 4 << 20
	// maxKeepHead is the largest header buffer a connection keeps between
	// frames; a rare larger one (a long ListBlocks reply) is dropped.
	maxKeepHead = 64 << 10
	prefixLen   = 4
)

// framer is one connection's reusable framing scratch, so a frame costs no
// allocation beyond the message itself in the steady state. It is owned by
// whoever owns the connection: the server's per-connection goroutine, or
// the holder of the client's per-node lock.
type framer struct {
	hdr  [prefixLen]byte // the incoming length prefix
	head []byte          // outgoing: length prefix, then everything but the cut-out payloads
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
	f.out = segs
	_, err = f.out.WriteTo(w)
	clear(segs) // the kept scratch must not pin the message's payloads
	f.segs = segs
	if cap(head) <= maxKeepHead {
		f.head = head
	}
	return err
}

// read receives one frame body into a buffer from bufpool. Decoded payloads
// alias it, so whoever decodes the frame decides when — and whether — it goes
// back: the server returns a request frame once the response is on the wire,
// a client's reply frame belongs to the decoded response
// (rpc.DecodePooledResponse), whose holder may release it or let it be
// collected.
func (f *framer) read(r io.Reader) ([]byte, error) {
	if _, err := io.ReadFull(r, f.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(f.hdr[:]))
	if n > maxFrame {
		return nil, fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", n)
	}
	// A prefix alone earns at most maxUpfront; the rest of a longer frame is
	// rented as its bytes actually arrive, doubling.
	buf := bufpool.GetLen(min(n, maxUpfront))
	have := 0
	for {
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			bufpool.Put(buf)
			return nil, err
		}
		if have = len(buf); have == n {
			return buf, nil
		}
		next := bufpool.GetLen(min(n, 2*have))
		copy(next, buf)
		bufpool.Put(buf)
		buf = next
	}
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
type Client struct {
	addrs     []string
	ioTimeout atomic.Int64 // a time.Duration
	hist      atomic.Pointer[metrics.HistogramSet]
	nodes     []nodeConn
}

// nodeConn is one node's connection state. mu serializes request/response
// pairs on the connection and guards every field.
type nodeConn struct {
	mu   sync.Mutex
	conn net.Conn
	f    framer
}

// NewClient returns a client for the given node addresses (node i is
// addrs[i]).
func NewClient(addrs []string) *Client {
	return &Client{
		addrs: append([]string(nil), addrs...),
		nodes: make([]nodeConn, len(addrs)),
	}
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

// exchange performs one request/response pair on nc's connection, applying
// the per-frame IO deadline when configured and recording per-frame timings
// when a histogram set is installed. The returned response owns its pooled
// reply frame. The caller holds nc.mu.
func (c *Client) exchange(nc *nodeConn, node int, req *rpc.Request) (*rpc.Response, error) {
	conn := nc.conn
	timeout := time.Duration(c.ioTimeout.Load())
	hist := c.hist.Load()
	if timeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
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
	if timeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
	}
	// The reply frame is rented, like the server's request frames, so a bulk
	// reply costs no fresh zeroed allocation; the response's payloads alias
	// it and the response owns it. Nothing here ever puts it back: a caller
	// that is done with the bytes may (rpc.Response.Release), and one that
	// keeps them, or drops the response, leaves the frame to the collector.
	frame, err := nc.f.read(conn)
	if err != nil {
		return nil, err
	}
	resp := new(rpc.Response)
	if err := rpc.DecodePooledResponse(frame, resp); err != nil {
		bufpool.Put(frame)
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
// a failure on a freshly-dialed connection is returned as ErrNodeDown.
func (c *Client) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	if node < 0 || node >= len(c.addrs) {
		return nil, fmt.Errorf("tcpnet: node %d out of range", node)
	}
	nc := &c.nodes[node]
	nc.mu.Lock()
	defer nc.mu.Unlock()
	for {
		fresh := nc.conn == nil
		if fresh {
			conn, err := net.Dial("tcp", c.addrs[node])
			if err != nil {
				return nil, fmt.Errorf("%w: %d: %v", cluster.ErrNodeDown, node, err)
			}
			nc.conn = conn
		}
		resp, err := c.exchange(nc, node, req)
		if err == nil {
			return resp, nil
		}
		nc.conn.Close()
		nc.conn = nil
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
		nc.mu.Lock()
		if nc.conn != nil {
			nc.conn.Close()
			nc.conn = nil
		}
		nc.mu.Unlock()
	}
}
