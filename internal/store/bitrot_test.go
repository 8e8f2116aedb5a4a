package store

import (
	"bytes"
	"context"
	"testing"

	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/trace"
)

// rotDataBlock flips one byte of a stored data block that backs at least one
// column chunk, bypassing the node's write path so its at-rest checksum goes
// stale — disk rot, not a bad write. Returns the stripe and bin hit.
func rotDataBlock(t *testing.T, s *Store, cl *simnet.Cluster, name string) (int, int) {
	t.Helper()
	meta, err := s.Meta(name)
	if err != nil {
		t.Fatal(err)
	}
	for itemIdx, loc := range meta.ItemLocs {
		if meta.Items[itemIdx].Kind != ItemChunk || meta.Items[itemIdx].Size <= 8 {
			continue
		}
		st := meta.Stripes[loc.Stripe]
		bs := cl.Node(st.Nodes[loc.Bin]).Blocks
		block, err := bs.Get(st.BlockIDs[loc.Bin], 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		block = bytes.Clone(block) // a block read from a store is read-only
		block[3] ^= 0x55
		if err := bs.Put(st.BlockIDs[loc.Bin], block); err != nil {
			t.Fatal(err)
		}
		return loc.Stripe, loc.Bin
	}
	t.Fatal("no chunk-bearing data bin found")
	return 0, 0
}

// (The at-rest and in-flight bit-rot cycles — detect, serve via
// reconstruction, queue, repair, scrub clean — are rows of
// TestBlockReadFaults.)

// TestSkipChecksumVerifyDisablesEndToEndCheck pins the benchmark escape
// hatch: with SkipChecksumVerify set, the coordinator does not checksum node
// replies — an in-flight flip of a directly-read data block reaches the
// caller uncounted and unrepaired — which is exactly why it is
// benchmark-only.
func TestSkipChecksumVerifyDisablesEndToEndCheck(t *testing.T) {
	opts := fusionTestOptions()
	opts.SkipChecksumVerify = true
	tap := &tapClient{inner: simnet.New(simnet.DefaultConfig())}
	s, err := New(tap, opts)
	if err != nil {
		t.Fatal(err)
	}
	data, _, _ := makeObject(t, 2, 200, 1)
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	meta, _ := s.Meta("obj")
	loc := meta.ItemLocs[meta.ChunkItemIndex(0, 0)]
	tap.set(meta.Stripes[loc.Stripe].BlockIDs[loc.Bin])
	ctx, sp := trace.Start(context.Background(), "read")
	got, err := s.GetContext(ctx, "obj", 0, 0)
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, data) {
		t.Fatal("the flipped byte did not reach the caller: something still verifies")
	}
	if n := sp.Total(trace.ChecksumFailures); n != 0 {
		t.Fatalf("skip mode counted %d checksum failures", n)
	}
	if rs := s.RepairStats(); rs.Enqueued != 0 {
		t.Fatalf("skip mode must not enqueue repairs: %+v", rs)
	}
}
