package workload

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/fusionstore/fusion/internal/datasets"
	"github.com/fusionstore/fusion/internal/erasure"
	"github.com/fusionstore/fusion/internal/fac"
)

// facOverhead computes FAC's storage overhead vs optimal for a dataset's
// chunk list under RS(9,6).
func (l *Lab) facOverhead(d DatasetName) float64 {
	layout := fac.ConstructStripes(erasure.RS96.K, l.Footer(d).ChunkSizes())
	return layout.OverheadVsOptimal(erasure.RS96.N)
}

// oracleNodeBudget caps every exact solve by search nodes, not wall-clock
// time, so the bound a figure reports is the same on any machine. The 5 s
// cap it replaces reached 6.5M (taxi) to 30M (uk pp) nodes on the 2-core
// sandbox; on all four datasets the best bound found within 10M is the one
// found within those.
const oracleNodeBudget = 10_000_000

// oracleNodes is the budget of one solve at this lab's scale.
func (l *Lab) oracleNodes() int64 { return int64(oracleNodeBudget * l.Scale) }

// oracle returns (solving on first use) the exact solver's result for the
// dataset's chunk list under RS(9,6).
func (l *Lab) oracle(d DatasetName) fac.OracleResult {
	sizes := l.Footer(d).ChunkSizes()
	l.mu.Lock()
	defer l.mu.Unlock()
	if res, ok := l.oracles[d]; ok {
		return res
	}
	res := fac.Oracle(erasure.RS96.K, sizes, fac.OracleOptions{MaxNodes: l.oracleNodes()})
	l.oracles[d] = res
	return res
}

// Fig10a regenerates Fig. 10a: the exact (branch-and-bound) solver's
// runtime as the number of chunks grows. The paper's Gurobi runs take hours
// past ~35 chunks; here each solve is capped so the sweep finishes, and the
// cutoff column reports whether the solver proved optimality.
func (l *Lab) Fig10a() *Report {
	r := &Report{
		ID:     "fig10a",
		Title:  "runtime of the exact ILP solver vs number of chunks",
		Header: []string{"num chunks", "runtime", "nodes explored", "proved optimal"},
		Notes:  []string{fmt.Sprintf("solves capped at %d search nodes each; the blow-up past ~20 chunks is the point of the figure", l.oracleNodes())},
	}
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{5, 10, 14, 18, 22, 26, 30} {
		sizes := make([]uint64, n)
		for i := range sizes {
			sizes[i] = 1<<20 + uint64(rng.Int63n(99<<20))
		}
		res := fac.Oracle(erasure.RS96.K, sizes, fac.OracleOptions{MaxNodes: l.oracleNodes()})
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(n),
			res.Elapsed.Round(time.Microsecond).String(),
			fmt.Sprint(res.Nodes),
			fmt.Sprint(res.Optimal),
		})
	}
	return r
}

// Fig16a regenerates Fig. 16a: FAC's storage overhead vs the number of
// chunks, for Zipf skews 0, 0.5 and 0.99, averaged over repeated draws.
func (l *Lab) Fig16a() *Report {
	r := &Report{
		ID:     "fig16a",
		Title:  "FAC storage overhead vs optimal, synthetic chunk sizes 1-100MB, RS(9,6)",
		Header: []string{"num chunks", "zipf 0", "zipf 0.5", "zipf 0.99"},
	}
	const runs = 30
	for _, n := range []int{50, 100, 200, 500, 1000} {
		row := []string{fmt.Sprint(n)}
		for _, skew := range []float64{0, 0.5, 0.99} {
			rng := rand.New(rand.NewSource(int64(n)*100 + int64(skew*100)))
			sum := 0.0
			for run := 0; run < runs; run++ {
				sizes := datasets.ZipfSizes(rng, skew, n, 1<<20, 100<<20)
				layout := fac.ConstructStripes(erasure.RS96.K, sizes)
				sum += layout.OverheadVsOptimal(erasure.RS96.N)
			}
			row = append(row, pct(sum/runs))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// Fig16b regenerates Fig. 16b: storage overhead w.r.t. optimal of the
// oracle, the padding approach, and FAC on the four real datasets.
func (l *Lab) Fig16b() *Report {
	r := &Report{
		ID:     "fig16b",
		Title:  "storage overhead w.r.t. optimal: oracle vs padding vs FAC, RS(9,6)",
		Header: []string{"dataset", "oracle", "padding", "fac"},
		Notes:  []string{fmt.Sprintf("oracle capped at %d search nodes/dataset: reports its best bound (the paper's Gurobi runs take hours)", l.oracleNodes())},
	}
	for _, d := range AllDatasets {
		sizes := l.Footer(d).ChunkSizes()
		best := l.oracle(d).Layout
		padding := fac.NewPaddingPlacement(sizes, l.ScaledBlockSize(d), erasure.RS96.K)
		facL := fac.ConstructStripes(erasure.RS96.K, sizes)
		r.Rows = append(r.Rows, []string{
			string(d),
			pct(best.OverheadVsOptimal(erasure.RS96.N)),
			pct(padding.OverheadVsOptimal(erasure.RS96.N)),
			pct(facL.OverheadVsOptimal(erasure.RS96.N)),
		})
	}
	return r
}

// Fig16c regenerates Fig. 16c: the layout-construction runtime of the three
// approaches relative to the total Put latency of the object.
func (l *Lab) Fig16c() *Report {
	r := &Report{
		ID:     "fig16c",
		Title:  "layout runtime as a fraction of total Put latency",
		Header: []string{"dataset", "put total", "oracle", "padding", "fac"},
		Notes:  []string{fmt.Sprintf("oracle capped at %d search nodes/dataset (the paper reports up to 3.91x of Put for its full runs)", l.oracleNodes())},
	}
	for _, d := range AllDatasets {
		sizes := l.Footer(d).ChunkSizes()
		// Measure a fresh Put end to end (layout + encode + store).
		sys := l.Fusion(d)
		putStart := time.Now()
		if _, err := sys.Store.Put(objectName(d)+"-fig16c", l.File(d)); err != nil {
			panic(err)
		}
		putTotal := time.Since(putStart)
		_ = sys.Store.Delete(objectName(d) + "-fig16c")

		oracleTime := l.oracle(d).Elapsed

		padStart := time.Now()
		fac.NewPaddingPlacement(sizes, l.ScaledBlockSize(d), erasure.RS96.K)
		padTime := time.Since(padStart)

		facStart := time.Now()
		fac.ConstructStripes(erasure.RS96.K, sizes)
		facTime := time.Since(facStart)

		frac := func(t time.Duration) string {
			return fmt.Sprintf("%.4f%% (%v)", float64(t)/float64(putTotal)*100, t.Round(time.Microsecond))
		}
		r.Rows = append(r.Rows, []string{
			string(d), putTotal.Round(time.Millisecond).String(),
			frac(oracleTime), frac(padTime), frac(facTime),
		})
	}
	return r
}
