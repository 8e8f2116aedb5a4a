// Package fusion's root benchmark suite: one testing.B benchmark per table
// and figure of the paper's evaluation (each delegating to the
// corresponding internal/workload driver), plus end-to-end Put/Query
// benchmarks of the store itself.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate a single artifact with full output:
//
//	go run ./cmd/fusion-bench -experiment fig13
package fusion_test

import (
	"os"
	"sync"
	"testing"

	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/tpch"
	"github.com/fusionstore/fusion/internal/workload"
)

// benchLab is shared across benchmarks so datasets and loaded stores are
// generated once. Benchmarks run at a reduced scale and query count; the
// fusion-bench binary runs the full-scale configuration.
var (
	benchLab     *workload.Lab
	benchLabOnce sync.Once
)

func lab() *workload.Lab {
	benchLabOnce.Do(func() {
		workload.QueriesPerCell = 5
		benchLab = workload.NewLab(0.10)
	})
	return benchLab
}

// benchExperiment runs one evaluation driver per iteration and prints its
// report on the first iteration when -v is set.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := workload.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	l := lab()
	for i := 0; i < b.N; i++ {
		report := e.Run(l)
		if i == 0 && testing.Verbose() {
			report.Print(os.Stderr)
		}
	}
}

// Motivation-section artifacts (§3).
func BenchmarkTab3Datasets(b *testing.B)           { benchExperiment(b, "tab3") }
func BenchmarkFig4aChunkSplits(b *testing.B)       { benchExperiment(b, "fig4a") }
func BenchmarkFig4bBaselineBreakdown(b *testing.B) { benchExperiment(b, "fig4b") }
func BenchmarkFig4cChunkSizeCDF(b *testing.B)      { benchExperiment(b, "fig4c") }
func BenchmarkFig4dPaddingOverhead(b *testing.B)   { benchExperiment(b, "fig4d") }
func BenchmarkFig6CompressionRatios(b *testing.B)  { benchExperiment(b, "fig6") }

// Design-section artifacts (§4).
func BenchmarkFig10aOracleRuntime(b *testing.B)    { benchExperiment(b, "fig10a") }
func BenchmarkFig10bPushdownTradeoff(b *testing.B) { benchExperiment(b, "fig10b") }

// Evaluation-section artifacts (§6).
func BenchmarkFig12NodeSpan(b *testing.B)          { benchExperiment(b, "fig12") }
func BenchmarkFig13ColumnSweep(b *testing.B)       { benchExperiment(b, "fig13") }
func BenchmarkFig13cdBreakdowns(b *testing.B)      { benchExperiment(b, "fig13cd") }
func BenchmarkFig14SelectivitySweep(b *testing.B)  { benchExperiment(b, "fig14ab") }
func BenchmarkFig14cBandwidthSweep(b *testing.B)   { benchExperiment(b, "fig14c") }
func BenchmarkFig14dCPUUtilization(b *testing.B)   { benchExperiment(b, "fig14d") }
func BenchmarkFig15RealQueries(b *testing.B)       { benchExperiment(b, "fig15a") }
func BenchmarkFig15bNetworkTraffic(b *testing.B)   { benchExperiment(b, "fig15b") }
func BenchmarkFig16aFACOverhead(b *testing.B)      { benchExperiment(b, "fig16a") }
func BenchmarkFig16bLayoutComparison(b *testing.B) { benchExperiment(b, "fig16b") }
func BenchmarkFig16cLayoutRuntime(b *testing.B)    { benchExperiment(b, "fig16c") }
func BenchmarkTab4RealQueryProfile(b *testing.B)   { benchExperiment(b, "tab4") }

// Ablations (DESIGN.md).
func BenchmarkAblLeastLoaded(b *testing.B) { benchExperiment(b, "abl-leastloaded") }
func BenchmarkAblSortDesc(b *testing.B)    { benchExperiment(b, "abl-sortdesc") }
func BenchmarkAblCostModel(b *testing.B)   { benchExperiment(b, "abl-costmodel") }
func BenchmarkAblBudget(b *testing.B)      { benchExperiment(b, "abl-budget") }
func BenchmarkAblRS1410(b *testing.B)      { benchExperiment(b, "abl-rs1410") }

//
// End-to-end store benchmarks (not tied to a paper artifact): the Put and
// Query critical paths on a real lineitem object over the simulated
// cluster.
//

func benchStore(b testing.TB, opts store.Options) (*store.Store, []byte) {
	b.Helper()
	cfg := tpch.DefaultConfig()
	cfg.RowsPerGroup = 5000
	data, err := tpch.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	opts.StorageBudget = 0.2
	s, err := store.New(simnet.New(simnet.DefaultConfig()), opts)
	if err != nil {
		b.Fatal(err)
	}
	return s, data
}

func BenchmarkPutFAC(b *testing.B) {
	s, data := benchStore(b, store.FusionOptions())
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Put("lineitem", data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutFixed(b *testing.B) {
	s, data := benchStore(b, store.BaselineOptions())
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Put("lineitem", data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryFusion(b *testing.B) {
	s, data := benchStore(b, store.FusionOptions())
	if _, err := s.Put("lineitem", data); err != nil {
		b.Fatal(err)
	}
	q := tpch.MicrobenchQuery("l_extendedprice", 0.01)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryBaseline(b *testing.B) {
	s, data := benchStore(b, store.BaselineOptions())
	if _, err := s.Put("lineitem", data); err != nil {
		b.Fatal(err)
	}
	q := tpch.MicrobenchQuery("l_extendedprice", 0.01)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryParallel compares the fan-out query path at worker-pool
// size 1 (serial) against the default pool (GOMAXPROCS) on a selective
// scan-heavy query; the two produce identical Results by construction.
func BenchmarkQueryParallel(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"pooled", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			opts := store.FusionOptions()
			opts.QueryWorkers = cfg.workers
			s, data := benchStore(b, opts)
			if _, err := s.Put("lineitem", data); err != nil {
				b.Fatal(err)
			}
			q := tpch.MicrobenchQuery("l_extendedprice", 0.10)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGetFull(b *testing.B) {
	s, data := benchStore(b, store.FusionOptions())
	if _, err := s.Put("lineitem", data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get("lineitem", 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}
