// fusion-cli is the client for a fusion-server cluster. It implements the
// store's three public operations (§5): Put, Get and Query, acting as the
// coordinator for each request.
//
// Usage:
//
//	fusion-cli -nodes host0:7070,host1:7070,... put  <object> <file.lpq>
//	fusion-cli -nodes ...                       get  <object> [offset length] > out
//	fusion-cli -nodes ...                       query 'SELECT l_orderkey FROM lineitem WHERE l_shipdate < 100'
//	fusion-cli -nodes ...                       delete <object>
//	fusion-cli -nodes ...                       scrub [<object>] [-repair]
//	fusion-cli -nodes ...                       repair <node-id>
//	fusion-cli -nodes ...                       repair-node <object> <node-id>
//	fusion-cli -nodes ...                       reconcile [-force]
//	fusion-cli -nodes ...                       gen-lineitem <file.lpq>
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/tcpnet"
	"github.com/fusionstore/fusion/internal/tpch"
)

func main() {
	var (
		nodes    = flag.String("nodes", "127.0.0.1:7070", "comma-separated node addresses")
		baseline = flag.Bool("baseline", false, "use the fixed-block baseline configuration")
		budget   = flag.Float64("budget", 0.02, "FAC storage budget vs optimal (fraction)")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}

	if args[0] == "gen-lineitem" {
		// Offline dataset generation needs no cluster.
		if len(args) != 2 {
			usage()
		}
		data, err := tpch.Generate(tpch.DefaultConfig())
		die(err)
		die(os.WriteFile(args[1], data, 0o644))
		fmt.Printf("wrote %d bytes to %s\n", len(data), args[1])
		return
	}

	client := tcpnet.NewClient(strings.Split(*nodes, ","))
	defer client.Close()
	opts := store.FusionOptions()
	if *baseline {
		opts = store.BaselineOptions()
	}
	opts.StorageBudget = *budget
	s, err := store.New(client, opts)
	die(err)

	switch args[0] {
	case "put":
		if len(args) != 3 {
			usage()
		}
		data, err := os.ReadFile(args[2])
		die(err)
		stats, err := s.Put(args[1], data)
		die(err)
		fmt.Printf("stored %s: %d bytes in %d stripes, layout %v, overhead %.2f%% vs optimal (%v)\n",
			args[1], stats.StoredBytes, stats.Stripes, stats.Mode,
			stats.OverheadVsOptimal*100, stats.TotalTime.Round(1e6))
		pl, err := s.Placement(args[1])
		die(err)
		fmt.Printf("placement: a row group's chunks on %.2f nodes on average, data bytes per node max/mean %.2f\n",
			pl.NodesPerRowGroup, pl.DataSkew())
	case "get":
		if len(args) != 2 && len(args) != 4 {
			usage()
		}
		var offset, length uint64
		if len(args) == 4 {
			offset = parseU64(args[2])
			length = parseU64(args[3])
		}
		data, err := s.Get(args[1], offset, length)
		die(err)
		_, err = os.Stdout.Write(data)
		die(err)
	case "query":
		if len(args) != 2 {
			usage()
		}
		res, err := s.Query(args[1])
		die(err)
		printResult(res)
	case "delete":
		if len(args) != 2 {
			usage()
		}
		die(s.Delete(args[1]))
		fmt.Printf("deleted %s\n", args[1])
	case "scrub":
		// No object: scrub everything discoverable in the cluster.
		repair := len(args) >= 2 && args[len(args)-1] == "-repair"
		rest := args[1:]
		if repair {
			rest = rest[:len(rest)-1]
		}
		switch len(rest) {
		case 0:
			rep, err := s.ScrubAll(context.Background(), store.ScrubOptions{Repair: repair})
			die(err)
			t := rep.Totals()
			fmt.Printf("scrubbed %d objects: %d stripes, %d missing blocks, %d checksum failures, %d corrupt stripes, %d repaired\n",
				rep.Objects, t.Stripes, t.MissingBlocks, t.ChecksumFailures, t.CorruptStripes, t.Repaired)
			for name, msg := range rep.Errors {
				fmt.Fprintf(os.Stderr, "fusion-cli: scrub %s: %s\n", name, msg)
			}
			if len(rep.Errors) > 0 {
				os.Exit(1)
			}
		case 1:
			rep, err := s.Scrub(context.Background(), rest[0], store.ScrubOptions{Repair: repair})
			die(err)
			fmt.Printf("scrubbed %s: %d stripes, %d missing blocks, %d checksum failures, %d corrupt stripes, %d repaired\n",
				rest[0], rep.Stripes, rep.MissingBlocks, rep.ChecksumFailures, rep.CorruptStripes, rep.Repaired)
		default:
			usage()
		}
	case "repair":
		if len(args) != 2 {
			usage()
		}
		node, err := strconv.Atoi(args[1])
		die(err)
		n, err := s.RepairNodeAll(context.Background(), node)
		die(err)
		fmt.Printf("repaired %d blocks/replicas on node %d\n", n, node)
	case "repair-node":
		if len(args) != 3 {
			usage()
		}
		node, err := strconv.Atoi(args[2])
		die(err)
		n, err := s.RepairNode(context.Background(), args[1], node)
		die(err)
		fmt.Printf("repaired %d blocks of %s on node %d\n", n, args[1], node)
	case "reconcile":
		if len(args) != 1 && !(len(args) == 2 && args[1] == "-force") {
			usage()
		}
		rep, err := s.ReconcileOrphans(context.Background(), len(args) == 2)
		die(err)
		fmt.Printf("reconciled: %d blocks scanned, %d live, %d half-commits finished, %d orphans deleted, %d skipped (possible in-flight)\n",
			rep.Scanned, rep.Live, rep.Committed, rep.Deleted, rep.Skipped)
	default:
		usage()
	}
}

func printResult(res *store.Result) {
	for i, label := range res.AggLabels {
		fmt.Printf("%s = %s\n", label, res.AggValues[i])
	}
	if len(res.Columns) > 0 {
		fmt.Println(strings.Join(res.Columns, "\t"))
		n := res.Data[0].Len()
		const maxPrint = 50
		for row := 0; row < n && row < maxPrint; row++ {
			cells := make([]string, len(res.Data))
			for c, col := range res.Data {
				switch col.Type {
				case lpq.Int64:
					cells[c] = strconv.FormatInt(col.Ints[row], 10)
				case lpq.Float64:
					cells[c] = strconv.FormatFloat(col.Floats[row], 'g', -1, 64)
				default:
					cells[c] = col.Strings[row]
				}
			}
			fmt.Println(strings.Join(cells, "\t"))
		}
		if n > maxPrint {
			fmt.Printf("... (%d more rows)\n", n-maxPrint)
		}
	}
	fmt.Printf("-- %d rows, selectivity %.2f%%, %d bytes network, pushdown on/off %d/%d, %v\n",
		res.Rows, res.Stats.Selectivity*100, res.Stats.TrafficBytes,
		res.Stats.PushdownOn, res.Stats.PushdownOff, res.Stats.Wall.Round(1e6))
}

func parseU64(s string) uint64 {
	v, err := strconv.ParseUint(s, 10, 64)
	die(err)
	return v
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fusion-cli:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  fusion-cli [-nodes a,b,...] [-baseline] put <object> <file.lpq>
  fusion-cli [-nodes a,b,...] get <object> [offset length]
  fusion-cli [-nodes a,b,...] query '<SELECT statement>'
  fusion-cli [-nodes a,b,...] delete <object>
  fusion-cli [-nodes a,b,...] scrub [<object>] [-repair]
  fusion-cli [-nodes a,b,...] repair <node-id>
  fusion-cli [-nodes a,b,...] repair-node <object> <node-id>
  fusion-cli [-nodes a,b,...] reconcile [-force]
  fusion-cli gen-lineitem <file.lpq>`)
	os.Exit(2)
}
