package workload

import (
	"fmt"

	"github.com/fusionstore/fusion/internal/datasets"
	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/sql"
	"github.com/fusionstore/fusion/internal/tpch"
)

// realQuery is one Table 4 entry.
type realQuery struct {
	Name    string
	Label   string
	Dataset DatasetName
	SQL     string
}

// RealQueries returns the four Table 4 queries.
func RealQueries() []realQuery {
	return []realQuery{
		{"Q1", "projection heavy", Lineitem, tpch.Q1()},
		{"Q2", "filter heavy", Lineitem, tpch.Q2()},
		{"Q3", "high selectivity", Taxi, datasets.TaxiQ3()},
		{"Q4", "low selectivity", Taxi, datasets.TaxiQ4()},
	}
}

// repeatQuery builds a batch of identical queries (real-world queries are
// fixed; latency variance comes from the cost model's jitter).
func repeatQuery(q string) []string {
	out := make([]string, QueriesPerCell)
	for i := range out {
		out[i] = q
	}
	return out
}

// Tab4 regenerates Table 4: the real-world query descriptions, with
// measured selectivity.
func (l *Lab) Tab4() *Report {
	r := &Report{
		ID:     "tab4",
		Title:  "real-world SQL query description",
		Header: []string{"query", "dataset", "num filters", "num projections", "selectivity"},
	}
	for _, rq := range RealQueries() {
		parsed, err := sql.Parse(rq.SQL)
		if err != nil {
			panic(err)
		}
		res, _, err := l.Fusion(rq.Dataset).Query(rq.SQL)
		if err != nil {
			panic(err)
		}
		nFilters := len(countLeaves(parsed.Where))
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%s (%s)", rq.Name, rq.Label),
			string(rq.Dataset),
			fmt.Sprint(nFilters),
			fmt.Sprint(len(parsed.Projections)),
			pct(res.Stats.Selectivity),
		})
	}
	return r
}

func countLeaves(e sql.Expr) []*sql.Compare {
	switch node := e.(type) {
	case nil:
		return nil
	case *sql.Compare:
		return []*sql.Compare{node}
	case *sql.Binary:
		return append(countLeaves(node.L), countLeaves(node.R)...)
	case *sql.Not:
		return countLeaves(node.E)
	default:
		return nil
	}
}

// Fig15a regenerates Fig. 15a: p50/p99 latency reduction of Fusion on the
// four real-world queries.
func (l *Lab) Fig15a() *Report {
	r := &Report{
		ID:     "fig15a",
		Title:  "latency reduction on real-world SQL queries",
		Header: []string{"query", "p50 reduction", "p99 reduction"},
	}
	for _, rq := range RealQueries() {
		batch := repeatQuery(rq.SQL)
		f, err := RunQueries(l.Fusion(rq.Dataset), batch)
		if err != nil {
			panic(err)
		}
		b, err := RunQueries(l.Baseline(rq.Dataset), batch)
		if err != nil {
			panic(err)
		}
		r.Rows = append(r.Rows, []string{
			rq.Name,
			pct(metrics.Reduction(b.Latency.P50(), f.Latency.P50())),
			pct(metrics.Reduction(b.Latency.P99(), f.Latency.P99())),
		})
	}
	return r
}

// Fig15b regenerates Fig. 15b: total network traffic of Fusion vs the
// baseline on the real-world queries.
func (l *Lab) Fig15b() *Report {
	r := &Report{
		ID:     "fig15b",
		Title:  "total network traffic on real-world SQL queries",
		Header: []string{"query", "fusion", "baseline", "reduction factor"},
	}
	for _, rq := range RealQueries() {
		batch := repeatQuery(rq.SQL)
		f, err := RunQueries(l.Fusion(rq.Dataset), batch)
		if err != nil {
			panic(err)
		}
		b, err := RunQueries(l.Baseline(rq.Dataset), batch)
		if err != nil {
			panic(err)
		}
		factor := 0.0
		if f.Traffic > 0 {
			factor = float64(b.Traffic) / float64(f.Traffic)
		}
		r.Rows = append(r.Rows, []string{
			rq.Name, mb(f.Traffic), mb(b.Traffic), fmt.Sprintf("%.1fx", factor),
		})
	}
	return r
}

// Headline regenerates the paper's §1/§8 headline numbers from the other
// experiments: best median/tail reduction on the TPC-H microbenchmark, best
// reductions on the real queries, and FAC's storage overhead.
func (l *Lab) Headline() *Report {
	r := &Report{
		ID:     "headline",
		Title:  "headline results (paper: 64%/81% TPC-H, 40%/48% real queries, ≤1.24% storage overhead)",
		Header: []string{"metric", "value"},
	}
	// Best-column microbenchmark reductions.
	bestP50, bestP99 := 0.0, 0.0
	for col, name := range lineitemColumns() {
		f, b := l.columnCell(name, 0.01, int64(100+col))
		if v := metrics.Reduction(b.Latency.P50(), f.Latency.P50()); v > bestP50 {
			bestP50 = v
		}
		if v := metrics.Reduction(b.Latency.P99(), f.Latency.P99()); v > bestP99 {
			bestP99 = v
		}
	}
	r.Rows = append(r.Rows,
		[]string{"TPC-H microbenchmark best p50 reduction", pct(bestP50)},
		[]string{"TPC-H microbenchmark best p99 reduction", pct(bestP99)})
	// Real-query reductions.
	rBestP50, rBestP99 := 0.0, 0.0
	for _, rq := range RealQueries() {
		batch := repeatQuery(rq.SQL)
		f, _ := RunQueries(l.Fusion(rq.Dataset), batch)
		b, _ := RunQueries(l.Baseline(rq.Dataset), batch)
		if v := metrics.Reduction(b.Latency.P50(), f.Latency.P50()); v > rBestP50 {
			rBestP50 = v
		}
		if v := metrics.Reduction(b.Latency.P99(), f.Latency.P99()); v > rBestP99 {
			rBestP99 = v
		}
	}
	r.Rows = append(r.Rows,
		[]string{"real-query best p50 reduction", pct(rBestP50)},
		[]string{"real-query best p99 reduction", pct(rBestP99)})
	// FAC storage overhead across datasets (max).
	worst := 0.0
	for _, d := range AllDatasets {
		over := l.facOverhead(d)
		if over > worst {
			worst = over
		}
	}
	r.Rows = append(r.Rows, []string{"FAC storage overhead vs optimal (worst dataset)", pct(worst)})
	return r
}
