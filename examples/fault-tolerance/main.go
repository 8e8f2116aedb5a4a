// fault-tolerance demonstrates that Fusion keeps RS(9,6)'s guarantees
// (§5 "Recovery and Fault Tolerance"): with up to n−k = 3 nodes down,
// reads reconstruct missing blocks from the stripe's survivors, queries
// fall back gracefully, and RepairNode rebuilds a replaced node's blocks.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/tpch"
)

func main() {
	cfg := tpch.DefaultConfig()
	cfg.RowGroups = 4
	cfg.RowsPerGroup = 5000
	data, err := tpch.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	cl := simnet.New(simnet.DefaultConfig())
	opts := store.FusionOptions()
	opts.StorageBudget = 0.2
	s, err := store.New(cl, opts)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := s.Put("lineitem", data); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored lineitem (%.1f MB) on a 9-node cluster under RS(9,6)\n\n", float64(len(data))/(1<<20))

	const query = "SELECT l_orderkey FROM lineitem WHERE l_quantity = 13"
	healthy, err := s.Query(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healthy cluster: query returns %d rows\n", healthy.Rows)

	// Kill nodes one at a time up to the tolerance limit.
	for _, down := range []int{2, 5, 7} {
		cl.SetDown(down, true)
		res, err := s.Query(query)
		if err != nil {
			log.Fatalf("query with node %d down: %v", down, err)
		}
		got, err := s.Get("lineitem", 0, 0)
		if err != nil {
			log.Fatalf("degraded read: %v", err)
		}
		if !bytes.Equal(got, data) || res.Rows != healthy.Rows {
			log.Fatal("degraded results differ")
		}
		fmt.Printf("node %d down: query still returns %d rows; full degraded read OK\n", down, res.Rows)
	}

	// A fourth failure exceeds n−k: reads must fail cleanly.
	cl.SetDown(8, true)
	if _, err := s.Get("lineitem", 0, 0); err != nil {
		fmt.Printf("4 nodes down (> n-k): read fails as expected: %v\n", err)
	} else {
		// Placement is random per stripe; some objects may dodge all four
		// down nodes. Still worth reporting.
		fmt.Println("4 nodes down: this object's stripes happened to avoid the failed nodes")
	}
	cl.SetDown(8, false)

	// Replace node 2: wipe it and rebuild its blocks from the survivors.
	victim := 2
	cl.SetDown(victim, false)
	node := cl.Node(victim)
	wiped := 0
	for _, id := range node.Blocks.IDs() {
		if err := node.Blocks.Delete(id); err != nil {
			log.Fatal(err)
		}
		wiped++
	}
	cl.SetDown(5, false)
	cl.SetDown(7, false)
	repaired, err := s.RepairNode(context.Background(), "lineitem", victim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnode %d wiped (%d blocks) and repaired: %d blocks rebuilt from stripe survivors\n",
		victim, wiped, repaired)
	got, err := s.Get("lineitem", 0, 0)
	if err != nil || !bytes.Equal(got, data) {
		log.Fatalf("post-repair read: %v", err)
	}
	fmt.Println("post-repair full read matches the original object")
}
