package store

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/trace"
)

// tapClient sits between a store and its cluster. It counts the calls that
// reach it, tallies the data-plane replies it passes back per node, and,
// when armed with a block id, flips the first byte of every GetBlock reply
// for that block — bare or a sub-response of a batch frame (faultnet's
// FaultCorrupt only sees the outer reply, whose Data a frame leaves empty).
// The stored copy is untouched.
type tapClient struct {
	inner cluster.Client

	mu      sync.Mutex
	calls   int
	replies map[int]wireTally // data-plane replies by node, since the last take
	getTo   map[string]int    // GetBlock calls by block id, since the last take
	corrupt string
}

// wireTally is a count of replies and the request and reply bytes they moved.
type wireTally struct {
	n         int
	req, resp uint64
}

func (c *tapClient) NumNodes() int { return c.inner.NumNodes() }

func (c *tapClient) set(corrupt string) {
	c.mu.Lock()
	c.corrupt = corrupt
	c.mu.Unlock()
}

func (c *tapClient) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// take returns the data-plane replies and the GetBlock calls tallied since the
// last take, and starts new tallies.
func (c *tapClient) take() (map[int]wireTally, map[string]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	replies, gets := c.replies, c.getTo
	c.replies, c.getTo = map[int]wireTally{}, map[string]int{}
	return replies, gets
}

func (c *tapClient) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	c.mu.Lock()
	c.calls++
	if c.getTo != nil && req.Kind == rpc.KindGetBlock {
		c.getTo[req.BlockID]++
	}
	target := c.corrupt
	c.mu.Unlock()
	resp, err := c.inner.Call(node, req)
	if err == nil && isDataPlane(req) {
		c.mu.Lock()
		if c.replies != nil {
			w := c.replies[node]
			c.replies[node] = wireTally{w.n + 1, w.req + req.WireSize(), w.resp + resp.WireSize()}
		}
		c.mu.Unlock()
	}
	if err != nil || target == "" {
		return resp, err
	}
	flip := func(rq *rpc.Request, rs *rpc.Response) {
		if rq.Kind == rpc.KindGetBlock && rq.BlockID == target && len(rs.Data) > 0 {
			rs.Data = append([]byte(nil), rs.Data...)
			rs.Data[0] ^= 0xFF
		}
	}
	out := *resp
	out.Subs = append([]rpc.Response(nil), resp.Subs...)
	flip(req, &out)
	for i := range out.Subs {
		flip(&req.Subs[i], &out.Subs[i])
	}
	return &out, nil
}

// TestBlockReadFaults drives every way one block read can go wrong through
// every way block bytes are read, and pins what the one verified read path
// promises: the bytes are right, each faulted block the read touches costs one
// degraded read, and each checksum fault is counted once, on the span and in
// the block's node health — after which a repairing scrub rewrites that one
// block and the object scrubs clean.
func TestBlockReadFaults(t *testing.T) {
	type target struct {
		meta        *ObjectMeta
		stripe, bin int
		off, length uint64 // the part of the block the read wants
		objOff      uint64 // where that part lies in the object
	}
	// A read mode is a store configuration plus the read it issues; pick
	// chooses the block to fault among those the read touches.
	modes := []struct {
		name string
		opts func() Options
		pick func(t *testing.T, s *Store, meta *ObjectMeta) target
		read func(ctx context.Context, s *Store, tg target) (got []byte, wantOff, wantLen uint64, err error)
	}{
		{name: "whole-object Get (batched prefetch)", opts: fusionTestOptions},
		{name: "ranged Get inside one block", opts: fusionTestOptions,
			read: func(ctx context.Context, s *Store, tg target) ([]byte, uint64, uint64, error) {
				got, err := s.GetContext(ctx, "obj", tg.objOff, tg.length)
				return got, tg.objOff, tg.length, err
			}},
		{name: "query chunk fetch (baseline)", opts: BaselineOptions,
			pick: func(t *testing.T, s *Store, meta *ObjectMeta) target {
				ch := meta.Footer.RowGroups[0].Chunks[1]
				g := s.segments(meta, ch.Offset, ch.Size)[0]
				return target{meta: meta, stripe: g.stripe, bin: g.bin, off: g.off, length: g.length}
			},
			read: func(ctx context.Context, s *Store, tg target) ([]byte, uint64, uint64, error) {
				ch := tg.meta.Footer.RowGroups[0].Chunks[1]
				st := &execState{ctx: ctx, meta: tg.meta, sp: trace.FromContext(ctx)}
				got, err := s.fetchChunkBytes(st, 0, 1)
				return got, ch.Offset, ch.Size, err
			}},
		{name: "CacheBytes set", opts: cacheTestOptions},
	}
	faults := []struct {
		name     string
		checksum bool // a checksum fault: counted once, one block to rewrite
		// needsWhole: only a whole-block read, checked against the stripe
		// metadata, can notice — a range is checked against the node's CRC.
		needsWhole bool
		inject     func(t *testing.T, cl *simnet.Cluster, tap *tapClient, tg target)
	}{
		{name: "node down", inject: func(t *testing.T, cl *simnet.Cluster, _ *tapClient, tg target) {
			cl.SetDown(tg.meta.Stripes[tg.stripe].Nodes[tg.bin], true)
		}},
		{name: "block deleted on the node", inject: func(t *testing.T, cl *simnet.Cluster, _ *tapClient, tg target) {
			st := tg.meta.Stripes[tg.stripe]
			if resp := cl.Node(st.Nodes[tg.bin]).Handle(&rpc.Request{Kind: rpc.KindDeleteBlock, BlockID: st.BlockIDs[tg.bin]}); resp.Err != "" {
				t.Fatal(resp.Err)
			}
		}},
		{name: "rot at rest", checksum: true, inject: func(t *testing.T, cl *simnet.Cluster, _ *tapClient, tg target) {
			// Behind the node's back: its recorded CRC goes stale, so it
			// refuses any read it verifies itself.
			st := tg.meta.Stripes[tg.stripe]
			bs := cl.Node(st.Nodes[tg.bin]).Blocks
			block, err := bs.Get(st.BlockIDs[tg.bin], 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			block = bytes.Clone(block) // a block read from a store is read-only
			block[tg.off] ^= 0x55
			if err := bs.Put(st.BlockIDs[tg.bin], block); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "reply corrupted in flight", checksum: true, inject: func(t *testing.T, _ *simnet.Cluster, tap *tapClient, tg target) {
			tap.set(tg.meta.Stripes[tg.stripe].BlockIDs[tg.bin])
		}},
		{name: "stored bytes differ from the stripe checksum", checksum: true, needsWhole: true,
			inject: func(t *testing.T, cl *simnet.Cluster, _ *tapClient, tg target) {
				// Through the node's write path: its own record matches the
				// wrong bytes, so only the coordinator can tell.
				st := tg.meta.Stripes[tg.stripe]
				node := cl.Node(st.Nodes[tg.bin])
				block, err := node.Blocks.Get(st.BlockIDs[tg.bin], 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				block = bytes.Clone(block) // a block read from a store is read-only
				block[tg.off] ^= 0x55
				if resp := node.Handle(&rpc.Request{
					Kind: rpc.KindPutBlock, BlockID: st.BlockIDs[tg.bin], Data: block,
					Object: tg.meta.Name, Epoch: tg.meta.Epoch, Crc: cluster.Checksum(block),
				}); resp.Err != "" {
					t.Fatal(resp.Err)
				}
			}},
	}

	data, _, _ := makeObject(t, 3, 400, 1)
	for _, mode := range modes {
		for _, fault := range faults {
			t.Run(mode.name+"/"+fault.name, func(t *testing.T) {
				cl := simnet.New(simnet.DefaultConfig())
				tap := &tapClient{inner: cl}
				s, err := New(tap, mode.opts())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Put("obj", data); err != nil {
					t.Fatal(err)
				}
				meta, err := s.Meta("obj")
				if err != nil {
					t.Fatal(err)
				}
				// Default target: the block holding the first chunk — all of it
				// for a whole-object Get, a few bytes inside the chunk for the
				// ranged one.
				var tg target
				read := mode.read
				switch {
				case mode.pick != nil:
					tg = mode.pick(t, s, meta)
				case read != nil:
					idx := meta.ChunkItemIndex(0, 0)
					loc := meta.ItemLocs[idx]
					tg = target{meta: meta, stripe: loc.Stripe, bin: loc.Bin,
						off: loc.BinOffset + 2, length: 5, objOff: meta.Items[idx].Offset + 2}
				default:
					loc := meta.ItemLocs[meta.ChunkItemIndex(0, 0)]
					tg = target{meta: meta, stripe: loc.Stripe, bin: loc.Bin, length: meta.Stripes[loc.Stripe].DataLens[loc.Bin]}
					read = func(ctx context.Context, s *Store, _ target) ([]byte, uint64, uint64, error) {
						got, err := s.GetContext(ctx, "obj", 0, 0)
						return got, 0, uint64(len(data)), err
					}
				}
				whole := tg.length == meta.Stripes[tg.stripe].DataLens[tg.bin] || s.cacheOn()
				if fault.needsWhole && !whole {
					t.Skip("a ranged read is checked against the node's own CRC, which agrees with the wrong bytes")
				}
				fault.inject(t, cl, tap, tg)

				ctx, sp := trace.Start(context.Background(), "read")
				got, off, n, err := read(ctx, s, tg)
				sp.End()
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				if !bytes.Equal(got, data[off:off+n]) {
					t.Fatal("read returned wrong bytes")
				}
				// A down node faults every block of it the read touches.
				wantDegraded := uint64(1)
				if fault.name == "node down" && mode.read == nil {
					wantDegraded = 0
					down := meta.Stripes[tg.stripe].Nodes[tg.bin]
					for _, st := range meta.Stripes {
						for j, l := range st.DataLens {
							if st.Nodes[j] == down && l > 0 {
								wantDegraded++
							}
						}
					}
				}
				if d := sp.Total(trace.DegradedReads); d != wantDegraded {
					t.Errorf("%d degraded reads, want %d", d, wantDegraded)
				}
				wantSum := uint64(0)
				if fault.checksum {
					wantSum = 1
				}
				if c := sp.Total(trace.ChecksumFailures); c != wantSum {
					t.Errorf("%d checksum failures counted, want %d", c, wantSum)
				}
				st := meta.Stripes[tg.stripe]
				if c := s.Health().Node(st.Nodes[tg.bin]).Checksums; c != wantSum {
					t.Errorf("node %d health counts %d checksum failures, want %d", st.Nodes[tg.bin], c, wantSum)
				}
				if !fault.checksum {
					return
				}
				// Repair: a repairing scrub finds the block bad, rebuilds it,
				// verifies it against the stripe metadata and rewrites it (a
				// no-op rewrite when only the reply was bad, so the tap stays
				// armed through it); the object then scrubs clean.
				rep, err := s.Scrub(context.Background(), "obj", ScrubOptions{Repair: true})
				if err != nil || rep.ChecksumFailures != 1 || rep.Repaired != 1 {
					t.Fatalf("repairing scrub = %+v, %v; want 1 checksum failure, 1 block rewritten", rep, err)
				}
				tap.set("")
				if resp := cl.Node(st.Nodes[tg.bin]).Handle(&rpc.Request{Kind: rpc.KindGetBlock, BlockID: st.BlockIDs[tg.bin]}); resp.Err != "" {
					t.Fatalf("repaired block must read clean at the node: %s", resp.Err)
				}
				rep, err = s.Scrub(context.Background(), "obj", ScrubOptions{})
				if err != nil || rep.MissingBlocks != 0 || rep.CorruptStripes != 0 || rep.ChecksumFailures != 0 {
					t.Fatalf("post-repair scrub: %+v, %v", rep, err)
				}
				if got, err := s.Get("obj", 0, 0); err != nil || !bytes.Equal(got, data) {
					t.Fatalf("post-repair read: %v", err)
				}
			})
		}
	}
}

// TestCancelledGetDoesNotRetry: the second pass against re-resolved metadata
// exists for concurrent overwrites. A Get whose caller has already given up
// must not spend a quorum read on it.
func TestCancelledGetDoesNotRetry(t *testing.T) {
	data, _, _ := makeObject(t, 2, 300, 1)
	tap := &tapClient{inner: simnet.New(simnet.DefaultConfig())}
	s, err := New(tap, fusionTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := tap.count()
	if _, err := s.GetContext(ctx, "obj", 0, 0); err == nil {
		t.Fatal("Get under a cancelled context succeeded")
	}
	if n := tap.count() - before; n != 0 {
		t.Fatalf("cancelled Get still sent %d calls (metadata quorum re-read)", n)
	}
}

// lateTimerCtx is a context whose deadline has passed on the clock while its
// Done channel and Err have not caught up — the window between a deadline and
// the runtime delivering its timer.
type lateTimerCtx struct{ context.Context }

func (lateTimerCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestExpiredDeadlineIsNotTooManyFailures: a read that runs out of the
// caller's budget must report the caller's deadline — not shard availability.
// The object sits behind a slow node (putBehindSlowNode), and the budget runs
// out two ways: call refuses a request whose deadline has passed from the
// clock alone, so every direct and survivor read fails at once, even when the
// context's own timer has yet to fire; and the slow node, which is waited for
// rather than raced by a reconstruction, outlasts a 10ms deadline.
func TestExpiredDeadlineIsNotTooManyFailures(t *testing.T) {
	cases := []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
	}{
		{"deadline passed before the read", func() (context.Context, context.CancelFunc) {
			return lateTimerCtx{context.Background()}, func() {}
		}},
		{"slow node outlasts a 10ms deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 10*time.Millisecond)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, _, _ := putBehindSlowNode(t, 1, fusionTestOptions())
			ctx, cancel := c.ctx()
			defer cancel()
			_, err := s.GetContext(ctx, "obj", 0, 0)
			if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrTooManyFailures) {
				t.Fatalf("Get past its deadline = %v, want DeadlineExceeded and not ErrTooManyFailures", err)
			}
		})
	}
}
