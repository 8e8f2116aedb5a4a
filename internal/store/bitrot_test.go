package store

import (
	"bytes"
	"testing"

	"github.com/fusionstore/fusion/internal/simnet"
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
