// taxi-analytics runs the paper's two Timescale-style taxi queries (Q3 and
// Q4, Table 4) on Fusion and shows the fine-grained cost-model decisions:
// Q3 pushes the weakly-compressible timestamp projection down
// (selectivity × compressibility = 0.375 × 1.6 ≈ 0.6 < 1), while Q4's
// highly compressible fare column is fetched compressed instead (§6.2).
package main

import (
	"fmt"
	"log"

	"github.com/fusionstore/fusion/internal/datasets"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/store"
)

func main() {
	fmt.Println("generating NYC yellow taxi dataset (16 row groups, 20 columns)...")
	cfg := datasets.TaxiConfig()
	cfg.RowsPerGroup = 10000
	data, err := datasets.Taxi(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("taxi: %.1f MB\n\n", float64(len(data))/(1<<20))

	simCfg := simnet.DefaultConfig()
	cl := simnet.New(simCfg)
	opts := store.FusionOptions()
	opts.StorageBudget = 0.10
	model := simnet.NewLatencyModel(simCfg) // prices the ledger a query hands back
	s, err := store.New(cl, opts)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := s.Put("taxi", data); err != nil {
		log.Fatal(err)
	}

	// Inspect the two columns the cost model reasons about.
	meta, err := s.Meta("taxi")
	if err != nil {
		log.Fatal(err)
	}
	dateIdx := meta.Footer.ColumnIndex("pickup_datetime")
	fareIdx := meta.Footer.ColumnIndex("fare_amount")
	fmt.Printf("compressibility: pickup_datetime %.1f, fare_amount %.1f\n\n",
		meta.Footer.RowGroups[0].Chunks[dateIdx].Compressibility(),
		meta.Footer.RowGroups[0].Chunks[fareIdx].Compressibility())

	for _, q := range []struct{ name, sql string }{
		{"Q3: rides per day in 2015 (37.5% sel)", datasets.TaxiQ3()},
		{"Q4: avg fare in Jan 2015 (6.3% sel)", datasets.TaxiQ4()},
	} {
		res, err := s.Query(q.sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n  %s\n", q.name, q.sql)
		fmt.Printf("  rows=%d measured-selectivity=%.1f%% latency=%v\n",
			res.Rows, res.Stats.Selectivity*100, model.QueryTime(res.Stats.Stages, res.WireBytes()).Total.Round(1000))
		fmt.Printf("  cost-model: %d chunk projections pushed down, %d fetched compressed\n",
			res.Stats.PushdownOn, res.Stats.PushdownOff)
		for i, label := range res.AggLabels {
			fmt.Printf("  %s = %s\n", label, res.AggValues[i])
		}
		fmt.Println()
	}
}
