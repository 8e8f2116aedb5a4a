package store

import (
	"testing"

	"github.com/fusionstore/fusion/internal/tpch"
)

// steadyQuery is a selective pushdown scan — a multi-leaf predicate and
// aggregates over several columns of lineitem.
const steadyQuery = "SELECT SUM(l_extendedprice), AVG(l_quantity) FROM lineitem" +
	" WHERE l_quantity > 10 AND l_extendedprice < 50000 AND l_discount < 0.05"

// steadyStore loads a 10×5000-row lineitem object into a store whose cache
// holds the whole working set, and runs one Get and one query to warm it.
func steadyStore(tb testing.TB) (*Store, int) {
	tb.Helper()
	cfg := tpch.DefaultConfig()
	cfg.RowsPerGroup = 5000
	data, err := tpch.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	opts := FusionOptions()
	opts.StorageBudget = 0.2
	opts.CacheBytes = 256 << 20
	s, _ := newSimStore(tb, opts)
	if _, err := s.Put("lineitem", data); err != nil {
		tb.Fatal(err)
	}
	steadyGet(tb, s)
	steadyScan(tb, s)
	return s, len(data)
}

func steadyGet(tb testing.TB, s *Store) {
	if _, err := s.Get("lineitem", 0, 0); err != nil {
		tb.Fatal(err)
	}
}

func steadyScan(tb testing.TB, s *Store) {
	if _, err := s.Query(steadyQuery); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkSteadyGet measures the warm full-object Get path: the object's
// blocks are cache-resident, so each iteration exercises only reassembly and
// the pooled buffer discipline.
func BenchmarkSteadyGet(b *testing.B) {
	s, size := steadyStore(b)
	b.ReportAllocs()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steadyGet(b, s)
	}
}

// BenchmarkSteadyQuery measures the warm aggregate-scan path with the
// decoded-chunk cache holding the working set.
func BenchmarkSteadyQuery(b *testing.B) {
	s, _ := steadyStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steadyScan(b, s)
	}
}

// TestSteadyStateAllocCeilings guards the pooled read path: allocations per
// warm Get and per warm Query stay under fixed ceilings (13 and ≈1,130
// measured), so an accidental per-block or per-chunk allocation — the thing
// the buffer pool exists to prevent — fails here rather than silently
// eroding the hot path.
func TestSteadyStateAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items on purpose under the race detector")
	}
	s, _ := steadyStore(t)
	get := testing.AllocsPerRun(10, func() { steadyGet(t, s) })
	query := testing.AllocsPerRun(10, func() { steadyScan(t, s) })
	t.Logf("warm allocs/op: Get %.0f (ceiling 40), Query %.0f (ceiling 2000)", get, query)
	if get > 40 {
		t.Errorf("warm Get allocates %.0f times/op, ceiling 40", get)
	}
	if query > 2000 {
		t.Errorf("warm Query allocates %.0f times/op, ceiling 2000", query)
	}
}
