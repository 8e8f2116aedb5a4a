package store

import (
	"bytes"
	"context"
	"testing"
)

func TestScrubCleanObject(t *testing.T) {
	data, _, _ := makeObject(t, 3, 300, 61)
	s, _ := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Scrub(context.Background(), "obj", ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stripes == 0 {
		t.Fatal("scrub must examine stripes")
	}
	if rep.MissingBlocks != 0 || rep.CorruptStripes != 0 || rep.Repaired != 0 {
		t.Fatalf("clean object must scrub clean: %+v", rep)
	}
}

func TestScrubDetectsAndRepairsMissingBlock(t *testing.T) {
	data, _, _ := makeObject(t, 2, 300, 62)
	s, cl := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	meta, _ := s.Meta("obj")
	st := meta.Stripes[0]
	victim := cl.Node(st.Nodes[2])
	if err := victim.Blocks.Delete(st.BlockIDs[2]); err != nil {
		t.Fatal(err)
	}
	// Report-only first.
	rep, err := s.Scrub(context.Background(), "obj", ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MissingBlocks != 1 {
		t.Fatalf("scrub must find the missing block: %+v", rep)
	}
	// Now repair.
	rep, err = s.Scrub(context.Background(), "obj", ScrubOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 1 {
		t.Fatalf("scrub must repair the missing block: %+v", rep)
	}
	// Object must now scrub clean and read back intact.
	rep, err = s.Scrub(context.Background(), "obj", ScrubOptions{})
	if err != nil || rep.MissingBlocks != 0 || rep.CorruptStripes != 0 {
		t.Fatalf("post-repair scrub: %+v, %v", rep, err)
	}
	got, err := s.Get("obj", 0, 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-repair read: %v", err)
	}
}

func TestScrubDetectsAndRepairsCorruptDataBlock(t *testing.T) {
	data, _, _ := makeObject(t, 2, 300, 63)
	s, cl := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	meta, _ := s.Meta("obj")
	// Corrupt a data bin that holds at least one chunk.
	var si, bin int
	found := false
	for itemIdx, loc := range meta.ItemLocs {
		if meta.Items[itemIdx].Kind == ItemChunk && meta.Items[itemIdx].Size > 8 {
			si, bin = loc.Stripe, loc.Bin
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no chunk item found")
	}
	st := meta.Stripes[si]
	node := cl.Node(st.Nodes[bin])
	block, err := node.Blocks.Get(st.BlockIDs[bin], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	block = bytes.Clone(block) // a block read from a store is read-only
	block[4] ^= 0x77
	if err := node.Blocks.Put(st.BlockIDs[bin], block); err != nil {
		t.Fatal(err)
	}
	// The node's at-rest verification refuses the rotted block, so the
	// scrub sees a checksum failure (treated as an erasure), not a parity
	// puzzle.
	rep, err := s.Scrub(context.Background(), "obj", ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChecksumFailures != 1 {
		t.Fatalf("scrub must flag the corrupt block: %+v", rep)
	}
	rep, err = s.Scrub(context.Background(), "obj", ScrubOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired == 0 {
		t.Fatalf("scrub must rewrite the corrupt block: %+v", rep)
	}
	rep, err = s.Scrub(context.Background(), "obj", ScrubOptions{})
	if err != nil || rep.CorruptStripes != 0 || rep.ChecksumFailures != 0 {
		t.Fatalf("post-repair scrub: %+v, %v", rep, err)
	}
	got, err := s.Get("obj", 0, 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-repair read: %v", err)
	}
}

func TestScrubRepairsCorruptParity(t *testing.T) {
	data, _, _ := makeObject(t, 2, 300, 64)
	s, cl := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	meta, _ := s.Meta("obj")
	st := meta.Stripes[0]
	parityIdx := s.opts.Params.K // first parity block
	node := cl.Node(st.Nodes[parityIdx])
	block, err := node.Blocks.Get(st.BlockIDs[parityIdx], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(block) == 0 {
		t.Skip("empty parity block")
	}
	block = bytes.Clone(block) // a block read from a store is read-only
	block[0] ^= 0x01
	if err := node.Blocks.Put(st.BlockIDs[parityIdx], block); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Scrub(context.Background(), "obj", ScrubOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChecksumFailures != 1 || rep.Repaired == 0 {
		t.Fatalf("scrub must rewrite parity: %+v", rep)
	}
	rep, err = s.Scrub(context.Background(), "obj", ScrubOptions{})
	if err != nil || rep.CorruptStripes != 0 || rep.ChecksumFailures != 0 {
		t.Fatalf("post-repair scrub: %+v, %v", rep, err)
	}
}
