// Command benchmark is the repository's benchmark: it starts nine storage
// nodes on loopback sockets inside one process, builds one coordinator with
// the options as shipped, drives a workload against it, verifies every
// response and prints the metrics named in BENCHMARK.json. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed of object contents, query parameters and op order")
		seconds  = flag.Float64("seconds", runSeconds, "timed window in seconds")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics with every tap off; 1: per-layer metrics from a serial traced pass")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the spans to this file as JSON")
		aa       = flag.Int("aa", 0, "run two sets of this many end-to-end runs per workload and compare them against the bounds")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *spec {
		fmt.Print(benchmarkJSON())
		return 0
	}
	var defs []workloadDef
	if *workload == "all" {
		defs = workloads
	} else if def, ok := findWorkload(*workload); ok {
		defs = []workloadDef{def}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive, -trace 0 or 1, and no arguments may follow the flags")
		return 2
	}
	if *aa > 0 {
		return runAA(defs, *aa, *seed, *seconds)
	}

	cfg := runConfig{
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		warmup:   2 * time.Second,
		setups:   5,
		setupFor: 2 * time.Second,
		sz:       fullSizes,
		kernel:   100 * time.Millisecond,
		traceTo:  *traceOut,
	}
	ctx := context.Background()
	status := 0
	for _, def := range defs {
		var res result
		var err error
		if *traced == 1 {
			res, err = runTraced(ctx, def, cfg, os.Stdout)
		} else {
			res, err = runEndToEnd(ctx, def, cfg, os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", def.name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", def.name, err)
			return 1
		}
		fmt.Println(string(line))
		if !res.Correct {
			status = 1
		}
	}
	return status
}
