package store

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/fusionstore/fusion/internal/datasets"
	"github.com/fusionstore/fusion/internal/fac"
	"github.com/fusionstore/fusion/internal/tpch"
)

// TestPlacementAffinity: on the default lineitem over nine nodes, FAC
// gathers each row group's chunks into bins of their own
// (fac.GatherRowGroups) and a stripe's data bins go beside the chunks of
// their row groups that earlier stripes placed, so the columns of one query
// meet on few nodes — a WHERE conjunction is answered by one node's AND, and
// the chunks a grouped aggregate reads are co-resident instead of shipped
// between nodes — while data bytes stay spread over every node. The bounds
// are the figures before the gathering (all columns 3.30 nodes per row group,
// Q2's WHERE columns 2.00, data max/mean 1.39): the first two must fall, the
// third must not rise. The lineitem is
// the one `lpq-tool gen lineitem` writes, pinned here byte for byte (the
// other datasets are pinned in cmd/lpq-tool): a change to the lpq format or
// its writer that alters it must re-pin the sum on purpose.
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
	all, err := s.Placement("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if all.NodesPerRowGroup >= 3.30 {
		t.Errorf("a row group's 16 columns sit on %.2f nodes, want fewer than 3.30", all.NodesPerRowGroup)
	}
	q2, err := s.Placement("lineitem", tpch.ColShipDate, tpch.ColDiscount, tpch.ColQuantity)
	if err != nil {
		t.Fatal(err)
	}
	if q2.NodesPerRowGroup >= 2.0 {
		t.Errorf("Q2's three WHERE columns sit on %.2f nodes per row group, want fewer than 2.00", q2.NodesPerRowGroup)
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
	if len(all.DataBytes) != s.client.NumNodes() {
		t.Fatalf("blocks on %d of %d nodes", len(all.DataBytes), s.client.NumNodes())
	}
	for node, b := range all.DataBytes {
		if b == 0 {
			t.Errorf("node %d holds no data bytes", node)
		}
	}
	if skew := all.DataSkew(); skew > 1.39 {
		t.Errorf("data bytes per node max/mean %.2f, want at most 1.39", skew)
	}
	t.Logf("nodes per row group: all columns %.2f, Q2's WHERE columns %.2f, Q1's columns %.2f; returnflag beside extendedprice in %d row groups; data max/mean %.2f",
		all.NodesPerRowGroup, q2.NodesPerRowGroup, p.NodesPerRowGroup, together, all.DataSkew())

}

// TestGatherKeepsAlgorithm1Bytes: FAC's row-group gathering
// (fac.GatherRowGroups) moves chunks between bins only, so each dataset
// `lpq-tool gen` writes is stored in Algorithm 1's stripes and bytes.
func TestGatherKeepsAlgorithm1Bytes(t *testing.T) {
	s, _ := newSimStore(t, FusionOptions())
	gens := map[string]func() ([]byte, error){
		"lineitem":  func() ([]byte, error) { return tpch.Generate(tpch.DefaultConfig()) },
		"taxi":      func() ([]byte, error) { return datasets.Taxi(datasets.TaxiConfig()) },
		"recipenlg": func() ([]byte, error) { return datasets.RecipeNLG(datasets.RecipeConfig()) },
		"ukpp":      func() ([]byte, error) { return datasets.UKPP(datasets.UKPPConfig()) },
	}
	for name, gen := range gens {
		obj, err := gen()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st, err := s.Put(name, obj)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		meta, err := s.Meta(name)
		if err != nil {
			t.Fatal(err)
		}
		params := s.opts.Params
		alg1 := fac.ConstructStripes(params.K, itemSizes(meta.Items))
		if meta.Mode != LayoutFAC || len(meta.Stripes) != len(alg1.Stripes) || st.StoredBytes != alg1.StoredBytes(params.N) {
			t.Errorf("%s: %v layout, %d stripes storing %d bytes; Algorithm 1 makes %d stripes storing %d",
				name, meta.Mode, len(meta.Stripes), st.StoredBytes, len(alg1.Stripes), alg1.StoredBytes(params.N))
		}
	}
}
