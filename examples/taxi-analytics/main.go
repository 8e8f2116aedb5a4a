// taxi-analytics runs the paper's two Timescale-style taxi queries (Q3 and
// Q4, Table 4) on Fusion and shows the fine-grained cost-model decisions.
// The store pushes a chunk's projection down iff the reply — the selected
// rows in the chunk's own encoding, priced as sel × Size (sel × RawSize for
// a Snappy-compressed chunk) — plus the bytes of the row group's selection
// is smaller than the stored chunk, Size, which the coordinator would fetch
// instead. So it decides per row group, not per query as §6.2's
// selectivity × compressibility < 1 does. The rides are in pickup order, so
// a row group is selected whole, not at all (its statistics prune it) or in
// part, and only a part is worth pushing: Q3 (37.5% of 160,000 rows) pushes
// the pickup_datetime projection of the one row group it cuts and fetches
// the six it selects whole, Q4 (6.3%) pushes its two columns' projections
// of one row group and fetches the other's two chunks. The program prints
// those counts and the chunks' compressibility, RawSize/Size:
// pickup_datetime 5.3 (sorted, its pages hold the gaps between rides),
// fare_amount 20.9.
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
