package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/fusionstore/fusion/internal/erasure"
	"github.com/fusionstore/fusion/internal/gf256"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/trace"
)

// NaiveKernel adapts the seed log/exp multiply (the oracle the production
// kernel is property-tested against) to the Kernel seam so the hotpath
// report and FUSION_KERNEL_GATE can race both kernels through one encoder.
type NaiveKernel byte

func (k NaiveKernel) Coefficient() byte      { return byte(k) }
func (k NaiveKernel) Mul(src, dst []byte)    { gf256.MulSlice(byte(k), src, dst) }
func (k NaiveKernel) MulAdd(src, dst []byte) { gf256.MulAddSlice(byte(k), src, dst) }

// HotpathStats is the machine-readable result of the hotpath experiment,
// checked in as BENCH_hotpath.json so hot-path regressions show up in
// review diffs.
type HotpathStats struct {
	// Encode throughput of RS(9,6) on 1 MiB shards: the naive oracle and the
	// production nibble kernel.
	EncodeMBps struct {
		Naive  float64 `json:"naive"`
		Nibble float64 `json:"nibble"`
	} `json:"encode_mbps"`
	// Simulated latency of the pushdown scan (one scatter-gather frame per
	// node per stage).
	QueryLatencyUs struct {
		BatchedP50 float64 `json:"batched_p50"`
		BatchedP99 float64 `json:"batched_p99"`
	} `json:"query_latency_us"`
	// Data-plane network round trips one pushdown scan costs.
	RoundTripsPerQuery struct {
		Batched uint64 `json:"batched"`
	} `json:"round_trips_per_query"`
	// Heap allocations per warm-cache operation.
	AllocsPerOp struct {
		Get   float64 `json:"get"`
		Query float64 `json:"query"`
	} `json:"allocs_per_op"`
	// PutLadder tracks the streaming put pipeline at growing object sizes:
	// end-to-end throughput plus the pipeline's buffering high-water mark,
	// which must stay at two stripes regardless of object size.
	PutLadder []PutRung `json:"put_ladder"`
}

// PutRung is one object size of the streaming-put ladder.
type PutRung struct {
	SizeMB            int     `json:"size_mb"`
	MBps              float64 `json:"mbps"`
	PeakPipelineBytes uint64  `json:"peak_pipeline_bytes"`
	MaxStripeBytes    uint64  `json:"max_stripe_bytes"`
	AllocsPerOp       float64 `json:"allocs_per_op"`
}

// hotpathQuery is the measured scan: a multi-leaf predicate with pushed
// aggregates, the shape scatter-gather batching serves in few frames.
const hotpathQuery = "SELECT SUM(l_extendedprice), AVG(l_quantity) FROM lineitem" +
	" WHERE l_quantity > 10 AND l_extendedprice < 50000 AND l_discount < 0.05"

// encodeMBps measures RS(9,6) encode throughput with the given kernel
// constructor on 1 MiB shards.
func encodeMBps(kernel func(byte) gf256.Kernel) float64 {
	const shardSize = 1 << 20
	p := erasure.RS96
	c, err := erasure.NewCoderKernel(p, kernel)
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	shards := make([][]byte, p.N)
	rng := rand.New(rand.NewSource(48))
	for i := range shards {
		shards[i] = make([]byte, shardSize)
		if i < p.K {
			rng.Read(shards[i])
		}
	}
	encode := func() {
		if err := c.Encode(shards); err != nil {
			panic(fmt.Sprintf("workload: %v", err))
		}
	}
	encode() // warm the kernel tables
	iters, start := 0, time.Now()
	for time.Since(start) < 300*time.Millisecond {
		encode()
		iters++
	}
	elapsed := time.Since(start).Seconds()
	return float64(p.K*shardSize) * float64(iters) / 1e6 / elapsed
}

// hotpathSystem builds a dedicated lineitem deployment for the hotpath
// experiment (always-pushdown with aggregate pushdown, so the batch
// protocol carries the whole scan).
func (l *Lab) hotpathSystem(cacheBytes int64) *System {
	opts := store.FusionOptions()
	opts.StorageBudget = ExperimentBudget
	opts.FixedBlockSize = l.ScaledBlockSize(Lineitem)
	opts.Pushdown = store.PushdownAlways
	opts.AggregatePushdown = true
	opts.CacheBytes = cacheBytes

	cfg := simnet.DefaultConfig()
	cl := simnet.New(cfg)
	model := simnet.NewLatencyModel(cfg)
	opts.Model = model
	s, err := store.New(cl, opts)
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	if _, err := s.Put(objectName(Lineitem), l.File(Lineitem)); err != nil {
		panic(fmt.Sprintf("workload: loading lineitem: %v", err))
	}
	return &System{Cluster: cl, Model: model, Store: s}
}

// syntheticPutObject builds an lpq file of roughly sizeMB MiB of
// incompressible int64 data, so put throughput measures the pipeline —
// footer parse, layout, encode, scatter — rather than the compressor.
func syntheticPutObject(sizeMB int) []byte {
	const cols = 4
	const rowsPerGroup = 1 << 16
	rows := sizeMB << 20 / (8 * cols)
	schema := make([]lpq.Column, cols)
	for i := range schema {
		schema[i] = lpq.Column{Name: fmt.Sprintf("c%d", i), Type: lpq.Int64}
	}
	w := lpq.NewWriter(schema, lpq.WriterOptions{DisableDict: true})
	rng := rand.New(rand.NewSource(49))
	for off := 0; off < rows; off += rowsPerGroup {
		n := rowsPerGroup
		if rows-off < n {
			n = rows - off
		}
		group := make([]lpq.ColumnData, cols)
		for c := range group {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = rng.Int63()
			}
			group[c] = lpq.IntColumn(vals)
		}
		if err := w.WriteRowGroup(group); err != nil {
			panic(fmt.Sprintf("workload: %v", err))
		}
	}
	data, err := w.Finish()
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	return data
}

// MeasurePutLadder runs the streaming-put ladder: each rung streams an
// incompressible synthetic object of the given size through PutReader on a
// fresh simnet deployment and records end-to-end throughput, the pipeline's
// buffering high-water mark, and allocations per operation. Every rung
// overwrites one object name, so the cluster's footprint stays bounded to a
// single object and the measurement includes steady-state previous-version
// GC.
func MeasurePutLadder(sizesMB []int) []PutRung {
	rungs := make([]PutRung, 0, len(sizesMB))
	for _, mb := range sizesMB {
		data := syntheticPutObject(mb)
		opts := store.FusionOptions()
		opts.StorageBudget = ExperimentBudget
		opts.FixedBlockSize = 1 << 20 // a fixed-layout fallback still splits into many stripes
		cfg := simnet.DefaultConfig()
		cl := simnet.New(cfg)
		opts.Model = simnet.NewLatencyModel(cfg)
		s, err := store.New(cl, opts)
		if err != nil {
			panic(fmt.Sprintf("workload: %v", err))
		}
		put := func() *store.PutStats {
			st, err := s.PutReader(context.Background(), "putobj", bytes.NewReader(data), uint64(len(data)))
			if err != nil {
				panic(fmt.Sprintf("workload: put %d MB: %v", mb, err))
			}
			return st
		}
		put() // warm pools and the overwrite path
		const iters = 3
		var last *store.PutStats
		start := time.Now()
		for i := 0; i < iters; i++ {
			last = put()
		}
		elapsed := time.Since(start).Seconds()
		rungs = append(rungs, PutRung{
			SizeMB:            mb,
			MBps:              float64(len(data)) * iters / 1e6 / elapsed,
			PeakPipelineBytes: last.PeakPipelineBytes,
			MaxStripeBytes:    last.MaxStripeBytes,
			AllocsPerOp:       allocsPerOp(2, func() { put() }),
		})
	}
	return rungs
}

// queryRoundTrips runs one traced query and returns its data-plane round
// trips.
func queryRoundTrips(s *store.Store, query string) uint64 {
	ctx, sp := trace.Start(context.Background(), "hotpath.query")
	if _, err := s.QueryContext(ctx, query); err != nil {
		panic(fmt.Sprintf("workload: %q: %v", query, err))
	}
	sp.End()
	return sp.Total(trace.RoundTrips)
}

// allocsPerOp measures heap allocations per call of fn, single-threaded.
func allocsPerOp(iters int, fn func()) float64 {
	fn() // warm caches and pools outside the measured window
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// MeasureHotpath runs the hot-path microbenchmarks: the GF(2^8) kernel
// ladder, the pushdown scan's simulated latency and round trips, and
// warm-path allocation counts.
func MeasureHotpath(l *Lab) *HotpathStats {
	st := &HotpathStats{}
	st.EncodeMBps.Naive = encodeMBps(func(c byte) gf256.Kernel { return NaiveKernel(c) })
	st.EncodeMBps.Nibble = encodeMBps(gf256.NewKernel)

	sys := l.hotpathSystem(0)
	var rec metrics.LatencyRecorder
	for i := 0; i < QueriesPerCell; i++ {
		res, err := sys.Store.Query(hotpathQuery)
		if err != nil {
			panic(fmt.Sprintf("workload: %v", err))
		}
		rec.Record(res.Stats.Sim)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	st.QueryLatencyUs.BatchedP50 = us(rec.P50())
	st.QueryLatencyUs.BatchedP99 = us(rec.P99())
	st.RoundTripsPerQuery.Batched = queryRoundTrips(sys.Store, hotpathQuery)

	warm := l.hotpathSystem(256 << 20)
	st.AllocsPerOp.Get = allocsPerOp(10, func() {
		if _, err := warm.Store.Get(objectName(Lineitem), 0, 0); err != nil {
			panic(fmt.Sprintf("workload: %v", err))
		}
	})
	st.AllocsPerOp.Query = allocsPerOp(10, func() {
		if _, err := warm.Store.Query(hotpathQuery); err != nil {
			panic(fmt.Sprintf("workload: %v", err))
		}
	})
	st.PutLadder = MeasurePutLadder([]int{4, 16, 64})
	return st
}

// JSON renders the stats as indented JSON with a trailing newline.
func (st *HotpathStats) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Hotpath is the registry driver: the BENCH_hotpath.json numbers as a
// printable table.
func (l *Lab) Hotpath() *Report {
	st := MeasureHotpath(l)
	f := func(v float64) string { return fmt.Sprintf("%.0f", v) }
	rows := [][]string{
		{"encode naive MB/s", f(st.EncodeMBps.Naive)},
		{"encode nibble MB/s", f(st.EncodeMBps.Nibble)},
		{"query p50 µs", f(st.QueryLatencyUs.BatchedP50)},
		{"query p99 µs", f(st.QueryLatencyUs.BatchedP99)},
		{"round trips per query", fmt.Sprint(st.RoundTripsPerQuery.Batched)},
		{"Get allocs/op (warm)", f(st.AllocsPerOp.Get)},
		{"Query allocs/op (warm)", f(st.AllocsPerOp.Query)},
	}
	for _, r := range st.PutLadder {
		rows = append(rows,
			[]string{fmt.Sprintf("put %dMB MB/s", r.SizeMB), f(r.MBps)},
			[]string{fmt.Sprintf("put %dMB peak pipeline KiB", r.SizeMB), fmt.Sprint(r.PeakPipelineBytes >> 10)},
			[]string{fmt.Sprintf("put %dMB max stripe KiB", r.SizeMB), fmt.Sprint(r.MaxStripeBytes >> 10)},
			[]string{fmt.Sprintf("put %dMB allocs/op", r.SizeMB), f(r.AllocsPerOp)},
		)
	}
	return &Report{
		ID:     "hotpath",
		Title:  "hot-path microbenchmarks (kernels, batching, allocations, streaming put)",
		Header: []string{"metric", "value"},
		Rows:   rows,
		Notes: []string{
			"RS(9,6) encode on 1 MiB shards; scan = 3-leaf predicate + 2 pushed aggregates",
			"put ladder streams incompressible objects through PutReader; peak pipeline stays at two stripes",
			"refresh BENCH_hotpath.json with: fusion-bench -experiment hotpath -json BENCH_hotpath.json",
		},
	}
}
