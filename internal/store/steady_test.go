package store

import (
	"runtime"
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

// tcpLineitemStore loads a 10×22,000-row lineitem object (≈7 MB) into a store
// over nine storage nodes on loopback sockets in this process — the
// repository benchmark's object_get_large in small — and returns it with the
// object's size. opts as shipped (FusionOptions: cache off) makes every Get
// cold.
func tcpLineitemStore(tb testing.TB, opts Options) (*Store, int) {
	tb.Helper()
	data := mediumLineitem(tb)
	s, err := New(newTCPCluster(tb, 9), opts)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Put("lineitem", data); err != nil {
		tb.Fatal(err)
	}
	return s, len(data)
}

// mediumLineitem generates a 10×22,000-row lineitem object, ≈7 MB.
func mediumLineitem(tb testing.TB) []byte {
	tb.Helper()
	cfg := tpch.DefaultConfig()
	cfg.RowsPerGroup = 22000
	data, err := tpch.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// BenchmarkGetOverTCP measures a cold whole-object Get over real sockets:
// node block read, reply framing, CRC, reassembly. B/op against the object's
// size is what TestColdGetAllocatesObjectOnce gates.
func BenchmarkGetOverTCP(b *testing.B) {
	s, size := tcpLineitemStore(b, FusionOptions())
	steadyGet(b, s)
	b.ReportAllocs()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steadyGet(b, s)
	}
}

// TestColdGetAllocatesObjectOnce gates how often a read's bytes are touched,
// as a count: a cold Get over tcpnet allocates the buffer it returns and
// little else. Nodes serve stored blocks by reference and reply frames are
// rented and, once copied out, handed back, so the bytes allocated per Get —
// client and all nine nodes together, they share the process — stay within
// 1.5× the object's size (≈1.1× measured). With a copy of every block at the
// node and a fresh frame per reply it was 4.2×.
func TestColdGetAllocatesObjectOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items on purpose under the race detector")
	}
	s, size := tcpLineitemStore(t, FusionOptions())
	for i := 0; i < 3; i++ {
		steadyGet(t, s) // fills the frame pool
	}
	const gets = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < gets; i++ {
		steadyGet(t, s)
	}
	runtime.ReadMemStats(&after)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / gets / float64(size)
	t.Logf("a cold Get of %d bytes over tcpnet allocates %.2fx the object (ceiling 1.5x)", size, ratio)
	if ratio > 1.5 {
		t.Errorf("a cold Get over tcpnet allocates %.2fx the object's bytes, ceiling 1.5x", ratio)
	}
}

// TestCacheResidentWithinCharge: what the block cache charges against
// Options.CacheBytes is what it keeps alive. Over tcpnet a block arrives
// inside a rented reply frame — a power-of-two buffer, 2 MiB for a 1 MiB block
// and its header — and a cache that admitted that window as it came would pin
// the whole frame while charging the block. It admits a copy of exactly the
// block instead, and the Get that fetched it releases the frame. The heap is
// the witness (a slice's capacity is clipped and shows nothing).
func TestCacheResidentWithinCharge(t *testing.T) {
	opts := BaselineOptions()
	opts.FixedBlockSize = 1 << 20
	opts.CacheBytes = 64 << 20 // every block stays resident
	s, size := tcpLineitemStore(t, opts)
	live := func() int64 {
		for i := 0; i < 3; i++ { // a sync.Pool gives its buffers up over two cycles
			runtime.GC()
		}
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := live()
	steadyGet(t, s) // fills the cache; the object returned is dropped
	resident := live() - before
	charged := int64(s.CacheStats().DataBytes)
	t.Logf("the cache charges %d bytes for a %d-byte object; the heap grew by %d", charged, size, resident)
	if charged != int64(size) {
		t.Fatalf("the cache charges %d bytes after a whole-object Get of %d", charged, size)
	}
	if resident > charged*5/4 {
		t.Errorf("the cache charges %d bytes against CacheBytes and keeps %d alive", charged, resident)
	}
}

// BenchmarkProjectAllRows measures the coordinator's side of a wide scan: four
// columns of every row, which adaptive pushdown declines, so the chunks are
// fetched, decoded and gathered into the result columns here. B/op is the
// number to watch: the result itself plus the fetched chunks, with nothing
// re-grown or copied between them.
func BenchmarkProjectAllRows(b *testing.B) {
	s, _ := newSimStore(b, FusionOptions())
	if _, err := s.Put("lineitem", mediumLineitem(b)); err != nil {
		b.Fatal(err)
	}
	const query = "SELECT l_orderkey, l_partkey, l_extendedprice, l_comment FROM lineitem WHERE l_shipdate >= 0"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(query); err != nil {
			b.Fatal(err)
		}
	}
}
