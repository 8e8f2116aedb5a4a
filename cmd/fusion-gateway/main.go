// fusion-gateway serves the HTTP object/query API (the Fig. 1 front door)
// in front of a fusion-server cluster.
//
// Usage:
//
//	fusion-gateway -listen :8080 -nodes host0:7070,host1:7070,...
package main

import (
	"flag"
	"log"
	"net/http"
	"strings"

	"github.com/fusionstore/fusion/internal/gateway"
	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/tcpnet"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
		nodes    = flag.String("nodes", "127.0.0.1:7070", "comma-separated storage node addresses")
		baseline = flag.Bool("baseline", false, "use the fixed-block baseline configuration")
		budget   = flag.Float64("budget", 0.02, "FAC storage budget vs optimal (fraction)")
	)
	flag.Parse()

	client := tcpnet.NewClient(strings.Split(*nodes, ","))
	defer client.Close()
	opts := store.FusionOptions()
	if *baseline {
		opts = store.BaselineOptions()
	}
	opts.StorageBudget = *budget
	// One histogram set feeds both layers: op/rpc timings from the store and
	// per-frame net.write/net.read timings from the transport, all served by
	// GET /debug/fusionz.
	opts.Metrics = metrics.NewHistogramSet()
	client.SetMetrics(opts.Metrics)
	s, err := store.New(client, opts)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("fusion-gateway serving on http://%s (cluster: %s)", *listen, *nodes)
	log.Fatal(http.ListenAndServe(*listen, gateway.New(s)))
}
