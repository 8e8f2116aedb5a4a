// fusion-bench regenerates the paper's evaluation artifacts: every table
// and figure of §3/§6 plus the ablations listed in DESIGN.md, over the
// deterministic simulated cluster.
//
// Usage:
//
//	fusion-bench -list
//	fusion-bench -experiment fig13
//	fusion-bench -experiment all -scale 0.5 -queries 30
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/workload"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (see -list) or \"all\"")
		scale      = flag.Float64("scale", 1.0, "dataset scale relative to the laptop-scale defaults")
		queries    = flag.Int("queries", workload.QueriesPerCell, "queries per measured cell")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		hist       = flag.Bool("hist", true, "print per-phase latency histograms after each experiment")
		cacheBytes = flag.Int64("cachebytes", 0, "coordinator read-cache budget in bytes (0 = disabled, the paper's cold-path configuration)")
	)
	flag.Parse()

	if *list {
		for _, e := range workload.Experiments {
			fmt.Printf("%-16s %s\n", e.ID, e.Description)
		}
		return
	}
	workload.QueriesPerCell = *queries
	workload.CacheBytes = *cacheBytes
	if *hist {
		workload.Hist = metrics.NewHistogramSet()
	}
	lab := workload.NewLab(*scale)

	run := func(e workload.Experiment) {
		start := time.Now()
		report := e.Run(lab)
		report.Print(os.Stdout)
		if *hist {
			if snaps := workload.Hist.Snapshot(); len(snaps) > 0 {
				fmt.Printf("  -- %s latency phases (all measured queries) --\n", e.ID)
				workload.Hist.WriteText(os.Stdout)
				workload.Hist.Reset()
				fmt.Println()
			}
		}
		// Wall-clock time goes to stderr, so stdout is the same on every run
		// but for the solver and layout timings of Figs. 10a and 16c.
		fmt.Fprintf(os.Stderr, "  [%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *experiment == "all" {
		for _, e := range workload.Experiments {
			run(e)
		}
		return
	}
	e, err := workload.Find(*experiment)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	run(e)
}
