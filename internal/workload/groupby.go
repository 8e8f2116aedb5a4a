package workload

import (
	"fmt"

	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/tpch"
)

// GroupBy measures the grouped-aggregation and top-k pushdown extension:
// GROUP BY queries whose per-group partial states are reduced in situ on
// the storage nodes, ungrouped aggregates reduced the same way (a GROUP BY
// with no key, one chunk at a time), and ORDER BY+LIMIT queries answered by
// node-local top-k plus a bounded coordinator merge. Fusion (stats-driven pushdown)
// is compared against the fixed-block baseline (full coordinator-side
// execution); the pushdown columns show how much of the work the planner
// actually offloaded vs spilled.
func (l *Lab) GroupBy() *Report {
	r := &Report{
		ID:    "groupby",
		Title: "extension: GROUP BY / ORDER BY+LIMIT pushdown (lineitem)",
		Header: []string{"query", "fusion p50", "fusion traffic", "baseline p50", "baseline traffic",
			"group rpcs", "topk rpcs", "spills"},
		Notes: []string{
			"group rpcs / topk rpcs count row groups (for an ungrouped aggregate, chunks) reduced in situ; spills count those grouped at the coordinator (the planner found the partials plus the chunks to ship dearer than the chunks)",
		},
	}
	fusion := l.Fusion(Lineitem)
	baseline := l.Baseline(Lineitem)
	queries := []struct{ name, q string }{
		{"Q1-style: by returnflag", "SELECT l_returnflag, COUNT(*), SUM(l_extendedprice), AVG(l_quantity) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag"},
		{"by linestatus, filtered", "SELECT l_linestatus, COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_quantity < 25 GROUP BY l_linestatus ORDER BY l_linestatus"},
		{"by shipmode, top groups", "SELECT l_shipmode, COUNT(*) FROM lineitem GROUP BY l_shipmode ORDER BY COUNT(*) DESC LIMIT 3"},
		{"top-10 by extendedprice", "SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC LIMIT 10"},
		{"ungrouped SUM/AVG, 10% sel", fmt.Sprintf("SELECT SUM(l_extendedprice), AVG(l_extendedprice) FROM lineitem WHERE l_shipdate < %d", tpch.ShipDateDays/10)},
		{"ungrouped MIN/MAX, full scan", "SELECT MIN(l_quantity), MAX(l_quantity) FROM lineitem WHERE l_orderkey >= 0"},
	}
	for _, tc := range queries {
		batch := repeatQuery(tc.q)
		var groupRPCs, topkRPCs, spills int
		run := func(sys *System, collect bool) *RunResult {
			out := &RunResult{}
			for _, q := range batch {
				res, sim, err := sys.Query(q)
				if err != nil {
					panic(err)
				}
				out.Latency.Record(sim)
				out.Traffic += res.Stats.TrafficBytes
				if collect {
					groupRPCs += res.Stats.GroupAggRPCs
					topkRPCs += res.Stats.TopKRPCs
					spills += res.Stats.GroupSpills
				}
				Hist.Observe(metrics.Key{Op: "query.total", Node: metrics.NodeNone}, sim.Total)
			}
			return out
		}
		a := run(fusion, true)
		b := run(baseline, false)
		r.Rows = append(r.Rows, []string{
			tc.name,
			a.Latency.P50().String(), mb(a.Traffic),
			b.Latency.P50().String(), mb(b.Traffic),
			fmt.Sprint(groupRPCs), fmt.Sprint(topkRPCs), fmt.Sprint(spills),
		})
	}
	return r
}
