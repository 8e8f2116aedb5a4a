// csv-analytics shows the end-to-end adoption path for user data: convert
// a CSV table to the lpq columnar format (type inference included), store
// it in a Fusion cluster, and query it with pushdown — including the
// BETWEEN / IN / LIMIT extensions.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/store"
)

func main() {
	// 1. Some CSV data: a small web-request log.
	var csvData strings.Builder
	csvData.WriteString("ts,status,latency_ms,path,region\n")
	rng := rand.New(rand.NewSource(3))
	paths := []string{"/home", "/search", "/cart", "/checkout", "/api/items"}
	regions := []string{"us-east", "us-west", "eu-central"}
	for i := 0; i < 50000; i++ {
		status := 200
		switch rng.Intn(20) {
		case 0:
			status = 404
		case 1:
			status = 500
		}
		fmt.Fprintf(&csvData, "%d,%d,%.1f,%s,%s\n",
			1700000000+i, status, 1+rng.Float64()*200,
			paths[rng.Intn(len(paths))], regions[rng.Intn(len(regions))])
	}

	// 2. Convert to lpq (types inferred: ts/status → INT64, latency_ms →
	// FLOAT64, path/region → STRING).
	object, err := lpq.FromCSV(strings.NewReader(csvData.String()), lpq.CSVOptions{RowGroupRows: 10000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converted %d bytes of CSV into a %d-byte lpq object (%.1fx smaller)\n",
		csvData.Len(), len(object), float64(csvData.Len())/float64(len(object)))

	// 3. Store it in an in-process Fusion cluster.
	cl := simnet.New(simnet.DefaultConfig())
	opts := store.FusionOptions()
	opts.StorageBudget = 0.2
	s, err := store.New(cl, opts)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := s.Put("weblog", object)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored weblog: layout %v, %d stripes, overhead %.2f%% vs optimal\n\n",
		stats.Mode, stats.Stripes, stats.OverheadVsOptimal*100)

	// 4. Query it.
	queries := []string{
		"SELECT COUNT(*) FROM weblog WHERE status = 500",
		"SELECT AVG(latency_ms) FROM weblog WHERE path = '/checkout' AND region IN ('us-east', 'us-west')",
		"SELECT path, latency_ms FROM weblog WHERE latency_ms BETWEEN 190 AND 200 LIMIT 5",
		"SELECT MAX(latency_ms), MIN(latency_ms) FROM weblog WHERE status = 200",
	}
	for _, q := range queries {
		res, err := s.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(q)
		for i, label := range res.AggLabels {
			fmt.Printf("  %s = %s\n", label, res.AggValues[i])
		}
		if len(res.Columns) > 0 {
			n := res.Data[0].Len()
			for row := 0; row < n; row++ {
				fmt.Printf("  %s  %.1f\n", res.Data[0].Strings[row], res.Data[1].Floats[row])
			}
		}
		fmt.Printf("  [%d rows, %.2f%% selectivity, %d filter / %d project / %d group-agg RPCs]\n\n",
			res.Rows, res.Stats.Selectivity*100,
			res.Stats.FilterRPCs, res.Stats.ProjectRPCs, res.Stats.GroupAggRPCs)
	}
}
