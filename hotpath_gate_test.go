package fusion_test

import (
	"context"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"github.com/fusionstore/fusion/internal/erasure"
	"github.com/fusionstore/fusion/internal/gf256"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/trace"
	"github.com/fusionstore/fusion/internal/workload"
)

// gateFloat reads a float gate parameter from the environment, falling back
// to def when unset.
func gateFloat(t *testing.T, name string, def float64) float64 {
	v := os.Getenv(name)
	if v == "" {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		t.Fatalf("%s=%q: %v", name, v, err)
	}
	return f
}

// benchEncodeKernel measures RS(9,6) encode throughput on 1 MiB shards with
// the given multiply-kernel generation.
func benchEncodeKernel(b *testing.B, kernel func(byte) gf256.Kernel) {
	p := erasure.RS96
	c, err := erasure.NewCoderKernel(p, kernel)
	if err != nil {
		b.Fatal(err)
	}
	shards := make([][]byte, p.N)
	rng := rand.New(rand.NewSource(47))
	for i := range shards {
		shards[i] = make([]byte, 1<<20)
		if i < p.K {
			rng.Read(shards[i])
		}
	}
	b.SetBytes(int64(p.K * 1 << 20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeKernelNibble is the shipping nibble split-table kernel;
// BenchmarkEncodeKernelNaive is the log/exp oracle it is tested against.
func BenchmarkEncodeKernelNibble(b *testing.B) { benchEncodeKernel(b, gf256.NewKernel) }

func BenchmarkEncodeKernelNaive(b *testing.B) {
	benchEncodeKernel(b, func(c byte) gf256.Kernel { return workload.NaiveKernel(c) })
}

// TestKernelEncodeGate is the CI floor for the production GF(2^8) kernel:
// the nibble split-table kernel must encode at least FUSION_KERNEL_GATE_X
// (default 3; BENCH_hotpath.json records ≈14) times faster than the naive
// log/exp kernel, so a regression that silently falls back to a slow
// multiply path fails CI. It only runs when FUSION_KERNEL_GATE=1 so ordinary
// `go test ./...` runs stay timing-independent.
func TestKernelEncodeGate(t *testing.T) {
	if os.Getenv("FUSION_KERNEL_GATE") == "" {
		t.Skip("set FUSION_KERNEL_GATE=1 to run the kernel encode gate")
	}
	floor := gateFloat(t, "FUSION_KERNEL_GATE_X", 3)
	naive := testing.Benchmark(BenchmarkEncodeKernelNaive)
	nibble := testing.Benchmark(BenchmarkEncodeKernelNibble)
	if naive.NsPerOp() <= 0 || nibble.NsPerOp() <= 0 {
		t.Fatalf("degenerate benchmark results: nibble %v, naive %v", nibble, naive)
	}
	speedup := float64(naive.NsPerOp()) / float64(nibble.NsPerOp())
	mbps := func(r testing.BenchmarkResult) float64 {
		return float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
	}
	t.Logf("RS(9,6) encode: nibble %.0f MB/s, naive %.0f MB/s, speedup %.2fx (floor %.2fx)",
		mbps(nibble), mbps(naive), speedup, floor)
	if speedup < floor {
		t.Fatalf("nibble kernel is only %.2fx the naive kernel, floor %.2fx", speedup, floor)
	}
}

// batchGateQuery is a selective pushdown scan — a multi-leaf predicate and
// pushed aggregates over several columns, the shape the scatter-gather batch
// protocol exists to serve in few frames.
const batchGateQuery = "SELECT SUM(l_extendedprice), AVG(l_quantity) FROM lineitem" +
	" WHERE l_quantity > 10 AND l_extendedprice < 50000 AND l_discount < 0.05"

// tracedQueryRoundTrips runs one traced query and returns the number of
// data-plane round trips (batch frames plus lone data RPCs) it took, plus
// the span snapshot for per-stage inspection.
func tracedQueryRoundTrips(t *testing.T, s *store.Store, query string) (uint64, trace.SpanJSON) {
	t.Helper()
	ctx, sp := trace.Start(context.Background(), "gate.query")
	if _, err := s.QueryContext(ctx, query); err != nil {
		t.Fatal(err)
	}
	sp.End()
	return sp.Total(trace.RoundTrips), sp.Snapshot()
}

// spanFind returns the first span named name in a snapshot tree.
func spanFind(sp trace.SpanJSON, name string) (trace.SpanJSON, bool) {
	if sp.Name == name {
		return sp, true
	}
	for _, c := range sp.Children {
		if found, ok := spanFind(c, name); ok {
			return found, true
		}
	}
	return trace.SpanJSON{}, false
}

// spanRoundTrips sums the round_trips counter over a snapshot subtree.
func spanRoundTrips(sp trace.SpanJSON) uint64 {
	n := sp.Counters["round_trips"]
	for _, c := range sp.Children {
		n += spanRoundTrips(c)
	}
	return n
}

// TestBatchedQueryRoundTripGate is the CI ceiling on coordinator chattiness:
// a pushdown scan over the benchmark lineitem object must finish within
// FUSION_BATCH_GATE_MAX (default 20; BENCH_hotpath.json records 17, and
// per-chunk dispatch would take 50) data round trips, and — since the filter
// stage is planned across row groups — the filter stage itself must cost at
// most one frame per storage node, independent of how many row groups the
// object has. Unlike the timing gates this one is deterministic, but it
// shares the env-gate convention so the CI recipe stays uniform. Runs when
// FUSION_BATCH_GATE=1.
func TestBatchedQueryRoundTripGate(t *testing.T) {
	if os.Getenv("FUSION_BATCH_GATE") == "" {
		t.Skip("set FUSION_BATCH_GATE=1 to run the batched round-trip gate")
	}
	ceiling := uint64(gateFloat(t, "FUSION_BATCH_GATE_MAX", 20))

	opts := store.FusionOptions()
	opts.Pushdown = store.PushdownAlways
	opts.AggregatePushdown = true
	s, data := benchStore(t, opts)
	if _, err := s.Put("lineitem", data); err != nil {
		t.Fatal(err)
	}
	trips, snap := tracedQueryRoundTrips(t, s, batchGateQuery)
	t.Logf("round trips per query: %d (ceiling %d)", trips, ceiling)
	if trips > ceiling {
		t.Fatalf("query took %d data round trips, ceiling %d", trips, ceiling)
	}
	// One filter frame per node per stage, so the filter subtree's round
	// trips are capped by the cluster size.
	fsp, ok := spanFind(snap, "filter")
	if !ok {
		t.Fatal("traced query snapshot has no filter span")
	}
	nodes := uint64(simnet.DefaultConfig().Nodes)
	filterTrips := spanRoundTrips(fsp)
	t.Logf("filter-stage round trips: %d (node cap %d)", filterTrips, nodes)
	if filterTrips == 0 || filterTrips > nodes {
		t.Fatalf("filter stage took %d round trips, want 1..%d (one frame per node)", filterTrips, nodes)
	}
}

// TestStreamingPutGate is the CI guard for the streaming put pipeline: a
// 64 MiB object streamed through PutReader must hold the coordinator's
// pipeline buffering to at most two stripes' arenas — O(stripe), not
// O(object) — and must sustain at least FUSION_PUT_GATE_X (default 0.05)
// of the raw nibble-kernel encode throughput end to end, so a regression
// that silently materializes the whole object or serializes the pipeline
// fails CI. Runs when FUSION_PUT_GATE=1.
func TestStreamingPutGate(t *testing.T) {
	if os.Getenv("FUSION_PUT_GATE") == "" {
		t.Skip("set FUSION_PUT_GATE=1 to run the streaming put gate")
	}
	x := gateFloat(t, "FUSION_PUT_GATE_X", 0.05)
	r := workload.MeasurePutLadder([]int{64})[0]
	t.Logf("streaming put 64MB: %.0f MB/s, peak pipeline %d KiB, max stripe %d KiB, %.0f allocs/op",
		r.MBps, r.PeakPipelineBytes>>10, r.MaxStripeBytes>>10, r.AllocsPerOp)
	if r.PeakPipelineBytes == 0 || r.MaxStripeBytes == 0 {
		t.Fatalf("pipeline accounting missing: %+v", r)
	}
	if r.PeakPipelineBytes > 2*r.MaxStripeBytes {
		t.Fatalf("peak pipeline %d B exceeds two stripes (max stripe %d B)",
			r.PeakPipelineBytes, r.MaxStripeBytes)
	}
	// A materialized put would hold at least the whole object in encoded
	// blocks; the pipeline must stay well under that.
	if r.PeakPipelineBytes*2 > 64<<20 {
		t.Fatalf("peak pipeline %d B is not O(stripe) for a 64 MiB object", r.PeakPipelineBytes)
	}
	nibble := testing.Benchmark(BenchmarkEncodeKernelNibble)
	encMBps := float64(nibble.Bytes) * float64(nibble.N) / 1e6 / nibble.T.Seconds()
	if floor := encMBps * x; r.MBps < floor {
		t.Fatalf("streaming put %.0f MB/s is below the floor %.0f MB/s (%.2f of nibble encode %.0f MB/s)",
			r.MBps, floor, x, encMBps)
	}
}

// BenchmarkSteadyGet measures the warm full-object Get path: the object's blocks
// are cache-resident, so each iteration exercises only reassembly and the
// pooled buffer discipline.
func BenchmarkSteadyGet(b *testing.B) {
	opts := store.FusionOptions()
	opts.CacheBytes = 256 << 20
	s, data := benchStore(b, opts)
	if _, err := s.Put("lineitem", data); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Get("lineitem", 0, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get("lineitem", 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyQuery measures the warm aggregate-scan path with the
// decoded-chunk cache holding the working set.
func BenchmarkSteadyQuery(b *testing.B) {
	opts := store.FusionOptions()
	opts.CacheBytes = 256 << 20
	s, data := benchStore(b, opts)
	if _, err := s.Put("lineitem", data); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Query(batchGateQuery); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(batchGateQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllocCeilingGate is the CI guard for the pooled read path: allocations
// per steady-state Get and per steady-state Query must stay under fixed
// ceilings (FUSION_ALLOC_GATE_GET / FUSION_ALLOC_GATE_QUERY), so an
// accidental per-block or per-chunk allocation regression — the thing the
// buffer pool exists to prevent — fails CI rather than silently eroding the
// hot path. Runs when FUSION_ALLOC_GATE=1.
func TestAllocCeilingGate(t *testing.T) {
	if os.Getenv("FUSION_ALLOC_GATE") == "" {
		t.Skip("set FUSION_ALLOC_GATE=1 to run the alloc ceiling gate")
	}
	getCeil := int64(gateFloat(t, "FUSION_ALLOC_GATE_GET", 40))
	queryCeil := int64(gateFloat(t, "FUSION_ALLOC_GATE_QUERY", 2000))

	get := testing.Benchmark(BenchmarkSteadyGet)
	query := testing.Benchmark(BenchmarkSteadyQuery)
	t.Logf("steady-state allocs/op: Get %d (ceiling %d), Query %d (ceiling %d)",
		get.AllocsPerOp(), getCeil, query.AllocsPerOp(), queryCeil)
	if get.AllocsPerOp() > getCeil {
		t.Fatalf("steady-state Get allocates %d times/op, ceiling %d", get.AllocsPerOp(), getCeil)
	}
	if query.AllocsPerOp() > queryCeil {
		t.Fatalf("steady-state Query allocates %d times/op, ceiling %d", query.AllocsPerOp(), queryCeil)
	}
}
