package workload

import (
	"fmt"
	"time"

	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/tpch"
)

// lineitemColumns returns the 16 lineitem column names in id order.
func lineitemColumns() []string {
	sch := tpch.Schema()
	out := make([]string, len(sch))
	for i, c := range sch {
		out[i] = c.Name
	}
	return out
}

// Fig12 regenerates Fig. 12: the average number of nodes a lineitem column
// chunk is stored on under the baseline's fixed-block layout, per column,
// with the average chunk size.
func (l *Lab) Fig12() *Report {
	base := l.Baseline(Lineitem)
	footer := l.Footer(Lineitem)
	r := &Report{
		ID:     "fig12",
		Title:  "avg number of nodes per column chunk in baseline (fixed blocks)",
		Header: []string{"column id", "name", "avg nodes", "avg chunk size"},
	}
	for col, name := range lineitemColumns() {
		spanSum, sizeSum := 0, uint64(0)
		for rg := range footer.RowGroups {
			span, err := base.Store.ChunkNodeSpan(objectName(Lineitem), rg, col)
			if err != nil {
				panic(err)
			}
			spanSum += span
			sizeSum += footer.RowGroups[rg].Chunks[col].Size
		}
		n := len(footer.RowGroups)
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(col), name,
			fmt.Sprintf("%.1f", float64(spanSum)/float64(n)),
			mb(sizeSum / uint64(n)),
		})
	}
	return r
}

// columnCell runs the 1%-selectivity microbenchmark for one column on both
// systems and returns the two run results.
func (l *Lab) columnCell(col string, sel float64, seed int64) (fusion, baseline *RunResult) {
	queries := l.MicroBatch(Lineitem, col, sel, seed)
	f, err := RunQueries(l.Fusion(Lineitem), queries)
	if err != nil {
		panic(err)
	}
	b, err := RunQueries(l.Baseline(Lineitem), queries)
	if err != nil {
		panic(err)
	}
	return f, b
}

// Fig13 regenerates Figs. 13a/13b: per-column p50 and p99 latency
// reduction of Fusion vs the baseline at 1% selectivity.
func (l *Lab) Fig13() *Report {
	r := &Report{
		ID:     "fig13",
		Title:  "p50/p99 latency reduction per lineitem column (1% selectivity)",
		Header: []string{"column id", "name", "p50 reduction", "p99 reduction"},
		Notes:  []string{fmt.Sprintf("%d queries per column per system", QueriesPerCell)},
	}
	for col, name := range lineitemColumns() {
		f, b := l.columnCell(name, 0.01, int64(100+col))
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(col), name,
			pct(metrics.Reduction(b.Latency.P50(), f.Latency.P50())),
			pct(metrics.Reduction(b.Latency.P99(), f.Latency.P99())),
		})
	}
	return r
}

// Fig13cd regenerates Figs. 13c/13d: the latency breakdown of the
// microbenchmark on a large weakly-compressed column (l_extendedprice,
// column 5) and a small highly-compressed one (l_linestatus, column 9),
// for both systems.
func (l *Lab) Fig13cd() *Report {
	r := &Report{
		ID:     "fig13cd",
		Title:  "latency breakdown: column 5 (l_extendedprice) and column 9 (l_linestatus)",
		Header: []string{"column", "system", "disk", "processing", "network", "p50"},
	}
	for _, col := range []struct {
		id   int
		name string
	}{{5, "l_extendedprice"}, {9, "l_linestatus"}} {
		f, b := l.columnCell(col.name, 0.01, int64(200+col.id))
		for _, side := range []struct {
			label string
			run   *RunResult
		}{{"fusion", f}, {"baseline", b}} {
			bd := side.run.Latency.MeanBreakdown()
			d, p, n, _ := bd.Fractions()
			r.Rows = append(r.Rows, []string{
				fmt.Sprintf("col %d", col.id), side.label,
				pct(d), pct(p), pct(n),
				side.run.Latency.P50().Round(time.Microsecond).String(),
			})
		}
	}
	return r
}

// selectivities is the Fig. 14a/b sweep.
var selectivities = []float64{0.001, 0.01, 0.05, 0.10, 0.20, 0.50, 0.75, 1.0}

// Fig14ab regenerates Figs. 14a/14b: the impact of query selectivity on
// latency reduction for columns 5 and 9.
func (l *Lab) Fig14ab() *Report {
	r := &Report{
		ID:     "fig14ab",
		Title:  "latency reduction vs query selectivity (columns 5 and 9)",
		Header: []string{"selectivity", "col5 p50", "col5 p99", "col9 p50", "col9 p99"},
	}
	for i, sel := range selectivities {
		row := []string{pct(sel)}
		for _, col := range []string{"l_extendedprice", "l_linestatus"} {
			f, b := l.columnCell(col, sel, int64(300+i))
			row = append(row,
				pct(metrics.Reduction(b.Latency.P50(), f.Latency.P50())),
				pct(metrics.Reduction(b.Latency.P99(), f.Latency.P99())))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// Fig14c regenerates Fig. 14c: the network-bandwidth sweep for column 5.
func (l *Lab) Fig14c() *Report {
	r := &Report{
		ID:     "fig14c",
		Title:  "latency reduction vs per-node network bandwidth (column 5, 1% selectivity)",
		Header: []string{"bandwidth", "p50 reduction", "p99 reduction"},
	}
	for i, gbps := range []float64{10, 25, 50, 100} {
		queries := l.MicroBatch(Lineitem, "l_extendedprice", 0.01, int64(400+i))
		f, err := RunQueries(l.FusionAt(Lineitem, gbps), queries)
		if err != nil {
			panic(err)
		}
		b, err := RunQueries(l.BaselineAt(Lineitem, gbps), queries)
		if err != nil {
			panic(err)
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%gGbps", gbps),
			pct(metrics.Reduction(b.Latency.P50(), f.Latency.P50())),
			pct(metrics.Reduction(b.Latency.P99(), f.Latency.P99())),
		})
	}
	return r
}

// Fig14d regenerates Fig. 14d: average per-node CPU utilization at a fixed
// load of 10 queries/sec, per microbenchmark column, for both systems.
func (l *Lab) Fig14d() *Report {
	r := &Report{
		ID:     "fig14d",
		Title:  "CPU time per query (and utilization at 10 qps)",
		Header: []string{"column", "fusion", "baseline"},
	}
	cols := []string{"l_orderkey", "l_extendedprice", "l_linestatus", "l_comment"}
	for i, col := range cols {
		queries := l.MicroBatch(Lineitem, col, 0.01, int64(500+i))
		cpuPerQuery := func(sys *System) float64 {
			sys.Cluster.ResetCPU()
			run, err := RunQueries(sys, queries)
			if err != nil {
				panic(err)
			}
			// Node-side CPU is the cluster's count; the coordinator's own
			// scanning is the store's, priced at the same rate.
			total := float64(run.CoordProcBytes) / sys.Cluster.Config().ProcessRate
			for _, c := range sys.Cluster.CPUSeconds() {
				total += c
			}
			return total / float64(len(queries))
		}
		f := cpuPerQuery(l.Fusion(Lineitem))
		b := cpuPerQuery(l.Baseline(Lineitem))
		// Utilization at the paper's fixed 10 qps load, over the cluster's
		// cores; also reported as raw CPU-time per query since the
		// laptop-scale datasets make absolute utilization tiny.
		const qps = 10.0
		cfg := l.Fusion(Lineitem).Cluster.Config()
		cores := float64(cfg.Cores * cfg.Nodes)
		r.Rows = append(r.Rows, []string{
			col,
			fmt.Sprintf("%.3fms (%.4f%%)", f*1000, f*qps/cores*100),
			fmt.Sprintf("%.3fms (%.4f%%)", b*1000, b*qps/cores*100),
		})
	}
	return r
}

// Fig10b regenerates Fig. 10b: the pushdown trade-off heatmap — p50
// improvement of Fusion (always-push configuration, as in the paper's
// motivation plot) over the baseline across four columns of differing
// compressibility and a selectivity sweep.
func (l *Lab) Fig10b() *Report {
	cols := []struct {
		id   int
		name string
	}{{5, "l_extendedprice"}, {0, "l_orderkey"}, {4, "l_quantity"}, {7, "l_tax"}}
	r := &Report{
		ID:     "fig10b",
		Title:  "pushdown trade-off: p50 improvement (%) of always-pushdown Fusion vs baseline",
		Header: []string{"selectivity"},
		Notes:  []string{"negative cells are where pushdown hurts — the region the cost model avoids (§4.3)"},
	}
	for _, c := range cols {
		r.Header = append(r.Header, fmt.Sprintf("c%d", c.id))
	}
	sys := l.FusionWithPolicy(Lineitem, store.PushdownAlways)
	base := l.Baseline(Lineitem)
	for i, sel := range []float64{0.01, 0.10, 0.50, 1.0} {
		row := []string{pct(sel)}
		for j, c := range cols {
			queries := l.MicroBatch(Lineitem, c.name, sel, int64(600+10*i+j))
			f, err := RunQueries(sys, queries)
			if err != nil {
				panic(err)
			}
			b, err := RunQueries(base, queries)
			if err != nil {
				panic(err)
			}
			row = append(row, pct(metrics.Reduction(b.Latency.P50(), f.Latency.P50())))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}
