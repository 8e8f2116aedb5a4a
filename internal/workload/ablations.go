package workload

import (
	"fmt"
	"math/rand"

	"github.com/fusionstore/fusion/internal/datasets"
	"github.com/fusionstore/fusion/internal/erasure"
	"github.com/fusionstore/fusion/internal/fac"
	"github.com/fusionstore/fusion/internal/store"
)

// AblLeastLoaded isolates Algorithm 1's least-occupied-bin rule against
// first-fit and random-fit (design principle 2, §4.2).
func (l *Lab) AblLeastLoaded() *Report {
	r := &Report{
		ID:     "abl-leastloaded",
		Title:  "ablation: bin-choice rule in Algorithm 1 (storage overhead vs optimal)",
		Header: []string{"num chunks", "least-loaded", "first-fit", "random-fit"},
	}
	const runs = 30
	for _, n := range []int{100, 300, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		sums := map[fac.BinChoice]float64{}
		for run := 0; run < runs; run++ {
			sizes := datasets.ZipfSizes(rng, 0.5, n, 1<<20, 100<<20)
			for _, choice := range []fac.BinChoice{fac.LeastLoaded, fac.FirstFit, fac.RandomFit} {
				layout := fac.ConstructStripesVariant(erasure.RS96.K, sizes, fac.ConstructOptions{
					SortDescending: true, BinChoice: choice, Seed: int64(run),
				})
				sums[choice] += layout.OverheadVsOptimal(erasure.RS96.N)
			}
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(n),
			pct(sums[fac.LeastLoaded] / runs),
			pct(sums[fac.FirstFit] / runs),
			pct(sums[fac.RandomFit] / runs),
		})
	}
	return r
}

// AblSortDesc isolates the descending-size sort (design principle 1).
func (l *Lab) AblSortDesc() *Report {
	r := &Report{
		ID:     "abl-sortdesc",
		Title:  "ablation: descending sort in Algorithm 1 (storage overhead vs optimal)",
		Header: []string{"num chunks", "sorted (paper)", "file order"},
	}
	const runs = 30
	for _, n := range []int{100, 300, 1000} {
		rng := rand.New(rand.NewSource(int64(n) + 1))
		var sorted, unsorted float64
		for run := 0; run < runs; run++ {
			sizes := datasets.ZipfSizes(rng, 0.5, n, 1<<20, 100<<20)
			sorted += fac.ConstructStripesVariant(erasure.RS96.K, sizes,
				fac.DefaultConstructOptions()).OverheadVsOptimal(erasure.RS96.N)
			unsorted += fac.ConstructStripesVariant(erasure.RS96.K, sizes,
				fac.ConstructOptions{BinChoice: fac.LeastLoaded}).OverheadVsOptimal(erasure.RS96.N)
		}
		r.Rows = append(r.Rows, []string{fmt.Sprint(n), pct(sorted / runs), pct(unsorted / runs)})
	}
	return r
}

// AblCostModel isolates the adaptive pushdown policy against always-push
// and never-push across a selectivity sweep on a compressible column
// (§4.3's Cost Equation).
func (l *Lab) AblCostModel() *Report {
	r := &Report{
		ID:     "abl-costmodel",
		Title:  "ablation: pushdown policy p50 latency (l_quantity, compressible)",
		Header: []string{"selectivity", "adaptive", "always", "never"},
		Notes:  []string{"adaptive must track the better of the two fixed policies at every point"},
	}
	systems := map[string]*System{
		"adaptive": l.FusionWithPolicy(Lineitem, store.PushdownAdaptive),
		"always":   l.FusionWithPolicy(Lineitem, store.PushdownAlways),
		"never":    l.FusionWithPolicy(Lineitem, store.PushdownNever),
	}
	for i, sel := range []float64{0.01, 0.10, 0.50, 1.0} {
		queries := l.MicroBatch(Lineitem, "l_quantity", sel, int64(700+i))
		row := []string{pct(sel)}
		for _, name := range []string{"adaptive", "always", "never"} {
			res, err := RunQueries(systems[name], queries)
			if err != nil {
				panic(err)
			}
			row = append(row, res.Latency.P50().String())
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// AblBudget sweeps the storage-budget hyperparameter and reports the
// fallback rate and realized overhead on synthetic objects (§4.2).
func (l *Lab) AblBudget() *Report {
	r := &Report{
		ID:     "abl-budget",
		Title:  "ablation: storage-budget sweep (100-chunk zipf-0.5 objects)",
		Header: []string{"budget", "fallback rate", "mean overhead when FAC used"},
	}
	const trials = 50
	for _, budget := range []float64{0.005, 0.01, 0.02, 0.04, 0.08, 0.16} {
		rng := rand.New(rand.NewSource(31))
		fallbacks, used := 0, 0
		var overheadSum float64
		for trial := 0; trial < trials; trial++ {
			sizes := datasets.ZipfSizes(rng, 0.5, 100, 1<<20, 100<<20)
			layout, err := fac.ConstructWithBudget(erasure.RS96.N, erasure.RS96.K, sizes, budget)
			if err != nil {
				fallbacks++
				continue
			}
			used++
			overheadSum += layout.OverheadVsOptimal(erasure.RS96.N)
		}
		mean := "-"
		if used > 0 {
			mean = pct(overheadSum / float64(used))
		}
		r.Rows = append(r.Rows, []string{
			pct(budget), pct(float64(fallbacks) / trials), mean,
		})
	}
	return r
}

// AblRS1410 repeats the FAC overhead measurement under RS(14,10) — the
// paper notes the pattern matches RS(9,6) (§6.3).
func (l *Lab) AblRS1410() *Report {
	r := &Report{
		ID:     "abl-rs1410",
		Title:  "FAC overhead under RS(14,10) on the real datasets",
		Header: []string{"dataset", "RS(9,6)", "RS(14,10)"},
	}
	for _, d := range AllDatasets {
		sizes := l.Footer(d).ChunkSizes()
		l96 := fac.ConstructStripes(erasure.RS96.K, sizes)
		l1410 := fac.ConstructStripes(erasure.RS1410.K, sizes)
		r.Rows = append(r.Rows, []string{
			string(d),
			pct(l96.OverheadVsOptimal(erasure.RS96.N)),
			pct(l1410.OverheadVsOptimal(erasure.RS1410.N)),
		})
	}
	return r
}
