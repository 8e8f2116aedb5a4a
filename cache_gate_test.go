package fusion_test

import (
	"context"
	"os"
	"testing"

	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/trace"
)

// hotQuery is the gate's repeated analytics scan. A selective aggregate in
// reassembly mode moves real chunk bytes from the nodes on a cold run, which
// is exactly what the decoded-chunk cache is supposed to eliminate.
const hotQuery = "SELECT SUM(l_extendedprice), AVG(l_quantity) FROM lineitem WHERE l_quantity > 10"

// cacheGateOptions puts the store in coordinator-reassembly mode (every
// chunk is fetched, decoded and cacheable) with the given cache budget.
func cacheGateOptions(cacheBytes int64) store.Options {
	opts := store.FusionOptions()
	opts.Exec = store.ExecReassemble
	opts.Pushdown = store.PushdownNever
	opts.CacheBytes = cacheBytes
	return opts
}

// benchHotQuery measures steady-state latency of the repeated scan. With a
// cache budget the store is warmed before the timer starts, so every
// measured iteration is the hot path.
func benchHotQuery(b *testing.B, opts store.Options) {
	s, data := benchStore(b, opts)
	if _, err := s.Put("lineitem", data); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Query(hotQuery); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(hotQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotQueryCold is the repeated scan with the cache disabled — the
// paper's cold-path configuration.
func BenchmarkHotQueryCold(b *testing.B) { benchHotQuery(b, cacheGateOptions(0)) }

// BenchmarkHotQueryCached is the same scan served from the decoded-chunk
// cache.
func BenchmarkHotQueryCached(b *testing.B) { benchHotQuery(b, cacheGateOptions(256<<20)) }

// TestHotQueryCacheGate is the CI guard for the read cache: a cached repeat
// scan must be at least twice as fast as the cold path, must move zero bytes
// from storage nodes, and the chunk tier must report a high hit rate. It
// only runs when FUSION_CACHE_GATE=1 so ordinary `go test ./...` runs stay
// timing-independent.
func TestHotQueryCacheGate(t *testing.T) {
	if os.Getenv("FUSION_CACHE_GATE") == "" {
		t.Skip("set FUSION_CACHE_GATE=1 to run the hot-query cache gate")
	}
	const minSpeedup = 2.0

	// Correctness half: a warmed store serves the scan with zero bytes from
	// nodes and a hot chunk tier.
	s, data := benchStore(t, cacheGateOptions(256<<20))
	if _, err := s.Put("lineitem", data); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(hotQuery); err != nil {
		t.Fatal(err)
	}
	ctx, sp := trace.Start(context.Background(), "hot")
	if _, err := s.QueryContext(ctx, hotQuery); err != nil {
		t.Fatal(err)
	}
	sp.End()
	if n := sp.Total(trace.BytesFromNodes); n != 0 {
		t.Fatalf("hot query moved %d bytes from nodes, want 0", n)
	}
	if sp.Total(trace.CacheHits) == 0 {
		t.Fatal("hot query recorded no cache hits")
	}
	cs := s.CacheStats()
	if hr := cs.Chunk.HitRate(); hr < 0.45 {
		t.Fatalf("chunk tier hit rate %.2f after one warm + one hot scan, want >= 0.45 (%+v)", hr, cs.Chunk)
	}

	// Performance half: steady-state hot vs cold.
	cold := testing.Benchmark(BenchmarkHotQueryCold)
	hot := testing.Benchmark(BenchmarkHotQueryCached)
	if cold.NsPerOp() <= 0 || hot.NsPerOp() <= 0 {
		t.Fatalf("degenerate benchmark results: cold %v, hot %v", cold, hot)
	}
	speedup := float64(cold.NsPerOp()) / float64(hot.NsPerOp())
	t.Logf("hot query cold %v/op, cached %v/op, speedup %.2fx (floor %.1fx)",
		cold, hot, speedup, minSpeedup)
	if speedup < minSpeedup {
		t.Fatalf("cached repeat scan is only %.2fx faster than cold, floor %.1fx", speedup, minSpeedup)
	}
}
