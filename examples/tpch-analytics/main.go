// tpch-analytics loads a generated TPC-H lineitem object into two
// deployments — Fusion (file-format-aware coding + adaptive pushdown) and
// the fixed-block baseline — and compares the paper's two real-world TPC-H
// queries (Table 4) plus a microbenchmark column scan on each.
package main

import (
	"fmt"
	"log"

	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/tpch"
)

// deploy builds a store over a simulated cluster, and the latency model that
// prices the cost ledger each of its queries hands back.
func deploy(opts store.Options) (*store.Store, *simnet.LatencyModel) {
	cfg := simnet.DefaultConfig()
	s, err := store.New(simnet.New(cfg), opts)
	if err != nil {
		log.Fatal(err)
	}
	return s, simnet.NewLatencyModel(cfg)
}

func main() {
	fmt.Println("generating TPC-H lineitem (10 row groups, 16 columns)...")
	cfg := tpch.DefaultConfig()
	cfg.RowsPerGroup = 20000 // keep the example snappy
	data, err := tpch.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lineitem: %.1f MB, %d rows\n\n", float64(len(data))/(1<<20), cfg.RowGroups*cfg.RowsPerGroup)

	fusionOpts := store.FusionOptions()
	fusionOpts.StorageBudget = 0.10
	fusion, fusionModel := deploy(fusionOpts)

	baseOpts := store.BaselineOptions()
	baseOpts.FixedBlockSize = uint64(len(data)) / 100 // paper's 100MB-per-10GB ratio
	baseline, baseModel := deploy(baseOpts)

	for name, s := range map[string]*store.Store{"fusion": fusion, "baseline": baseline} {
		stats, err := s.Put("lineitem", data)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s put: layout %v, %d stripes, storage overhead %.2f%% vs optimal\n",
			name, stats.Mode, stats.Stripes, stats.OverheadVsOptimal*100)
	}
	fmt.Println()

	queries := []struct{ name, sql string }{
		{"Q1 (pricing summary, 1.4% sel)", tpch.Q1()},
		{"Q2 (revenue change, ~5% sel)", tpch.Q2()},
		{"micro: l_extendedprice < p1", tpch.MicrobenchQuery("l_extendedprice", 0.01)},
		{"micro: l_comment, 1% sel", tpch.MicrobenchQuery("l_comment", 0.01)},
	}
	for _, q := range queries {
		fRes, err := fusion.Query(q.sql)
		if err != nil {
			log.Fatal(err)
		}
		bRes, err := baseline.Query(q.sql)
		if err != nil {
			log.Fatal(err)
		}
		if fRes.Rows != bRes.Rows {
			log.Fatalf("result mismatch: %d vs %d rows", fRes.Rows, bRes.Rows)
		}
		fSim := fusionModel.QueryTime(fRes.Stats.Stages, fRes.WireBytes()).Total
		bSim := baseModel.QueryTime(bRes.Stats.Stages, bRes.WireBytes()).Total
		reduction := 1 - float64(fSim)/float64(bSim)
		traffic := float64(bRes.Stats.TrafficBytes) / float64(fRes.Stats.TrafficBytes)
		fmt.Printf("%-32s rows=%-6d latency: fusion %v vs baseline %v (%.0f%% faster), traffic %.1fx lower\n",
			q.name, fRes.Rows,
			fSim.Round(1000), bSim.Round(1000),
			reduction*100, traffic)
		fmt.Printf("%-32s pushdown decisions: %d on / %d off; pruned row groups: %d\n",
			"", fRes.Stats.PushdownOn, fRes.Stats.PushdownOff, fRes.Stats.PrunedRowGroups)
	}
}
