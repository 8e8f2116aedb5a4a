package store

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/faultnet"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/trace"
)

// headerMax is rpc's inlineMax: a payload shorter than this travels inside
// its frame's header, and only a longer one can land.
const headerMax = 4 << 10

// landTally wraps a client and adds up, over the data-plane GetBlock replies
// it passes back — bare, or sub-responses of a frame — the payload bytes
// that landed in the caller's windows and those that arrived in a reply
// frame, to be copied out of it: short ones, which travel in the header, and
// the rest.
type landTally struct {
	cluster.Client
	landed, inHeader, inFrame, frames atomic.Uint64
}

func (c *landTally) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	resp, err := c.Client.Call(node, req)
	if err != nil || !isDataPlane(req) {
		return resp, err
	}
	add := func(q *rpc.Request, r *rpc.Response) {
		if q.Kind != rpc.KindGetBlock {
			return
		}
		switch n := uint64(len(r.Data)); {
		case r.Landed() != nil:
			c.landed.Add(r.PayloadBytes())
		case n < headerMax:
			c.inHeader.Add(n)
		default:
			c.inFrame.Add(n)
		}
	}
	add(req, resp)
	if req.Kind == rpc.KindBatch {
		c.frames.Add(1)
		for i := range resp.Subs {
			add(&req.Subs[i], &resp.Subs[i])
		}
	}
	return resp, nil
}

// TestColdGetLandsEveryBlock: over tcpnet, a cold whole-object Get as shipped
// (cache off) lands every block in the buffer it returns — bare replies and
// the sub-responses of the per-node prefetch frames alike — save those too
// short to leave their frame's header: the bytes landed and the bytes of
// those short blocks sum to the object's size, and not one byte of a longer
// GetBlock payload arrives in a reply frame to be copied out.
func TestColdGetLandsEveryBlock(t *testing.T) {
	data := mediumLineitem(t)
	tap := &landTally{Client: newTCPCluster(t, 9)}
	s, err := New(tap, FusionOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("lineitem", data); err != nil {
		t.Fatal(err)
	}
	tap.landed.Store(0)
	tap.inHeader.Store(0)
	tap.inFrame.Store(0)
	tap.frames.Store(0)
	got, err := s.Get("lineitem", 0, 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get: wrong bytes (err %v)", err)
	}
	if tap.frames.Load() == 0 {
		t.Fatal("the Get sent no prefetch frame: the sub-response leg proves nothing")
	}
	landed, short, copied := tap.landed.Load(), tap.inHeader.Load(), tap.inFrame.Load()
	t.Logf("a Get of %d bytes: %d landed, %d in blocks under %d bytes", len(data), landed, short, headerMax)
	if landed+short != uint64(len(data)) || copied != 0 || landed < uint64(len(data))*99/100 {
		t.Fatalf("a Get of %d bytes landed %d payload bytes, copied %d of short blocks and %d of others out of frames; want every block of %d bytes or more landed",
			len(data), landed, short, copied, headerMax)
	}
}

// TestLandedReplyCorruptionIsCaught: over tcpnet a block lands in the
// caller's buffer, so that is where faultnet's in-flight corruption flips its
// byte. The Get still returns the object's exact bytes: the block fails its
// stripe checksum, counts a ChecksumFailure on the span and in its node's
// health, and is rebuilt from the stripe's survivors into the same windows.
func TestLandedReplyCorruptionIsCaught(t *testing.T) {
	data, _, _ := makeObject(t, 1, 4000, 35) // one stripe: one block per node, each read bare
	inj := faultnet.New(newTCPCluster(t, 9), 1)
	tap := &landTally{Client: inj}
	s, err := New(tap, fusionTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	// The fault goes to the node of the stripe's first, longest block, which
	// lands.
	meta, err := s.meta(context.Background(), nil, "obj")
	if err != nil || len(meta.Stripes) != 1 || meta.Stripes[0].DataLens[0] < headerMax {
		t.Fatalf("want one stripe whose first block lands (err %v)", err)
	}
	inj.Add(faultnet.Rule{Node: meta.Stripes[0].Nodes[0], Kind: rpc.KindGetBlock, Fault: faultnet.FaultCorrupt, Count: 1})
	ctx, sp := trace.Start(context.Background(), "get")
	got, err := s.GetContext(ctx, "obj", 0, 0)
	sp.End()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get with a corrupted landed reply: wrong bytes (err %v)", err)
	}
	if inj.InjectedTotal() != 1 || tap.landed.Load() < meta.Stripes[0].DataLens[0] {
		t.Fatalf("%d faults injected over %d landed bytes: want one, on a landed reply", inj.InjectedTotal(), tap.landed.Load())
	}
	if n := sp.Total(trace.ChecksumFailures); n < 1 {
		t.Fatalf("%d checksum failures counted, want the corrupted block's", n)
	}
	if n := s.Health().Node(meta.Stripes[0].Nodes[0]).Checksums; n != 1 {
		t.Fatalf("the corrupted block's node health counts %d checksum failures, want 1", n)
	}
}
