package store

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/fusionstore/fusion/internal/tpch"
)

// TestPlacementAffinity: on the default lineitem over nine nodes, a stripe's
// data bins go beside the chunks of their row groups that earlier stripes
// placed, so the columns of one query meet on few nodes — the chunks a
// grouped aggregate reads are co-resident instead of shipped between nodes —
// while data bytes stay spread over every node. The lineitem is the one
// `lpq-tool gen lineitem` writes, pinned here byte for byte (the other
// datasets are pinned in cmd/lpq-tool): a change to the lpq format or its
// writer that alters it must re-pin the sum on purpose.
func TestPlacementAffinity(t *testing.T) {
	data, err := tpch.Generate(tpch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const lineitemSHA256 = "8a254983fdc00a557d896b3ff48535796859f958d4fe4740ee5e16ff523fb12f"
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != lineitemSHA256 {
		t.Fatalf("lineitem: %d bytes with sha256 %x, want %s", len(data), sum, lineitemSHA256)
	}
	s, _ := newSimStore(t, FusionOptions())
	if _, err := s.Put("lineitem", data); err != nil {
		t.Fatal(err)
	}
	q1 := []int{tpch.ColQuantity, tpch.ColExtendedPrice, tpch.ColDiscount, tpch.ColTax,
		tpch.ColReturnFlag, tpch.ColLineStatus, tpch.ColShipDate}
	p, err := s.Placement("lineitem", q1...)
	if err != nil {
		t.Fatal(err)
	}
	if p.NodesPerRowGroup > 2.5 {
		t.Errorf("Q1's seven columns sit on %.2f nodes per row group, want at most 2.5", p.NodesPerRowGroup)
	}
	meta, err := s.Meta("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	together := 0
	for rg, rgMeta := range meta.Footer.RowGroups {
		flag, _, _ := chunkLocation(meta, rg, tpch.ColReturnFlag, rgMeta.Chunks[tpch.ColReturnFlag])
		price, _, _ := chunkLocation(meta, rg, tpch.ColExtendedPrice, rgMeta.Chunks[tpch.ColExtendedPrice])
		if flag == price {
			together++
		}
	}
	if rgs := len(meta.Footer.RowGroups); together < 7 {
		t.Errorf("l_returnflag and l_extendedprice share a node in %d of %d row groups, want at least 7", together, rgs)
	}
	if len(p.DataBytes) != s.client.NumNodes() {
		t.Fatalf("blocks on %d of %d nodes", len(p.DataBytes), s.client.NumNodes())
	}
	for node, b := range p.DataBytes {
		if b == 0 {
			t.Errorf("node %d holds no data bytes", node)
		}
	}
	if skew := p.DataSkew(); skew > 1.5 {
		t.Errorf("data bytes per node max/mean %.2f, want at most 1.5", skew)
	}
	all, err := s.Placement("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Q1 columns on %.2f nodes per row group (all columns %.2f); returnflag beside extendedprice in %d row groups; data max/mean %.2f",
		p.NodesPerRowGroup, all.NodesPerRowGroup, together, p.DataSkew())
}
