package fusion_test

import (
	"context"
	"testing"

	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/trace"
)

// hotQuery is the cache test's repeated analytics scan. A selective aggregate in
// reassembly mode moves real chunk bytes from the nodes on a cold run, which
// is exactly what the decoded-chunk cache is supposed to eliminate.
const hotQuery = "SELECT SUM(l_extendedprice), AVG(l_quantity) FROM lineitem WHERE l_quantity > 10"

// cacheGateOptions puts the store in the baseline's coordinator-reassembly
// mode (fixed blocks: every chunk is fetched, decoded and cacheable) with the
// given cache budget.
func cacheGateOptions(cacheBytes int64) store.Options {
	opts := store.BaselineOptions()
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

// TestHotQueryCacheGate is the always-on guard for the read cache: a warmed
// store serves the repeat scan with zero bytes from storage nodes, records
// cache hits, and the chunk tier reports a high hit rate. What the cache is
// worth in time is not judged here — a cold/cached ratio over in-process
// simnet moves whenever the cold side gets cheaper, with nothing about the
// cache changed; BenchmarkHotQueryCold and BenchmarkHotQueryCached show it on
// demand, and the repository benchmark owes it a workload.
func TestHotQueryCacheGate(t *testing.T) {
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
}
