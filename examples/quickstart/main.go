// Quickstart: build a small analytics object, store it in an in-process
// Fusion cluster, run a query with pushdown, and read bytes back.
package main

import (
	"fmt"
	"log"

	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/store"
)

func main() {
	// 1. Build a columnar (lpq) object: the Employees table from the
	// paper's running example, §3.
	schema := []lpq.Column{
		{Name: "name", Type: lpq.String},
		{Name: "salary", Type: lpq.Int64},
	}
	w := lpq.NewWriter(schema, lpq.DefaultWriterOptions())
	names := []string{"Alice", "Bob", "Charlie", "David", "Emily", "Frank"}
	salaries := []int64{70000, 80000, 70000, 60000, 60000, 70000}
	// Two row groups of three rows, as in Fig. 3.
	for g := 0; g < 2; g++ {
		err := w.WriteRowGroup([]lpq.ColumnData{
			lpq.StringColumn(names[g*3 : g*3+3]),
			lpq.IntColumn(salaries[g*3 : g*3+3]),
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	object, err := w.Finish()
	if err != nil {
		log.Fatal(err)
	}

	// 2. Start a 9-node in-process cluster and a Fusion store over it
	// (RS(9,6) file-format-aware coding, adaptive pushdown).
	cluster := simnet.New(simnet.DefaultConfig())
	opts := store.FusionOptions()
	opts.StorageBudget = 5 // tiny demo object: allow any packing
	s, err := store.New(cluster, opts)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Put: the coordinator parses the footer, runs the FAC stripe
	// construction and scatters erasure-coded blocks.
	stats, err := s.Put("Employees", object)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored Employees: %d bytes across %d stripes (layout %v)\n",
		stats.StoredBytes, stats.Stripes, stats.Mode)

	// 4. Query: the paper's running example.
	res, err := s.Query("SELECT salary FROM Employees WHERE name = 'Bob'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Bob's salary: %d (rows=%d, filter pushed to storage nodes)\n",
		res.Data[0].Ints[0], res.Rows)

	// 5. Get: raw byte range reads reassemble the original object.
	head, err := s.Get("Employees", 0, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("object magic: %q\n", head)

	// 6. An aggregate is reduced where its column chunk lives, and only the
	// partial states reach the coordinator.
	res, err = s.Query("SELECT COUNT(*), AVG(salary) FROM Employees WHERE salary >= 70000")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s = %s, %s = %s\n",
		res.AggLabels[0], res.AggValues[0], res.AggLabels[1], res.AggValues[1])
}
