package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime/metrics"
	"time"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/colenc"
	"github.com/fusionstore/fusion/internal/erasure"
	"github.com/fusionstore/fusion/internal/fac"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/metakv"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/snappy"
	"github.com/fusionstore/fusion/internal/sql"
	"github.com/fusionstore/fusion/internal/trace"
)

// replayKinds are the leaf request kinds whose node-side handling time is
// reported one by one.
var replayKinds = []rpc.Kind{
	rpc.KindGetBlock, rpc.KindFilter, rpc.KindProject, rpc.KindAggregate, rpc.KindGroupAgg, rpc.KindTopK,
}

// opRec is one operation of the serial traced pass.
type opRec struct {
	primary    bool
	start, end int64
	out        opOut
	allocs     uint64
	tree       trace.SpanJSON
}

// heapAllocs reads the process-wide count of heap objects allocated so far
// (coordinator and in-process nodes alike).
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// serialPass runs the workload's ops one at a time from a single goroutine
// for dur, and in any case once through every template, continuing from the
// op indexes in next, and appends a record per successful op to recs. With traced set, the taps and a store trace are on
// and an op's position in recs is the index its taps carry.
func serialPass(ctx context.Context, e *env, inst *instance, clients []clientSpec, next []int, dur time.Duration, traced bool, t *tally, recs []opRec) []opRec {
	e.rec.on.Store(traced)
	defer e.rec.on.Store(false)
	defer e.rec.op.Store(-1)
	cycle := len(inst.serialPattern) * len(inst.templates)
	for k, deadline := 0, time.Now().Add(dur); k < cycle || time.Now().Before(deadline); k++ {
		c := inst.serialPattern[k%len(inst.serialPattern)]
		r := opRec{primary: clients[c].primary}
		octx := ctx
		var sp *trace.Span
		if traced {
			e.rec.op.Store(int64(len(recs)))
			octx, sp = trace.Start(ctx, "bench.op")
		}
		before := heapAllocs()
		r.start = e.rec.now()
		out, err := clients[c].op(octx, next[c])
		r.end = e.rec.now()
		r.allocs = heapAllocs() - before
		next[c]++
		if traced {
			sp.End()
			r.tree = sp.Snapshot()
		}
		if err == nil && out.check != nil {
			err = out.check()
		}
		// A failed op leaves no record; its taps fall to the next op's index,
		// and the failure already marks the run incorrect.
		if t.record(err) {
			out.check = nil // the closure holds the response, up to a whole object
			r.out = out
			recs = append(recs, r)
		}
	}
	return recs
}

// stageNS sums the durations of the spans called name directly under the
// store's root span of one op (store.Query, store.Put or store.Get).
// SpanJSON carries durations, not start times, so this is a stage's wall
// time, not its self time: overlap between a stage's children cannot be
// subtracted.
func stageNS(tree trace.SpanJSON, name string) int64 {
	var ns int64
	for _, root := range tree.Children {
		for _, st := range root.Children {
			if st.Name == name {
				ns += st.DurationNS
			}
		}
	}
	return ns
}

// leaves returns the requests a node executes for req: the sub-requests of
// a batch frame, or req itself.
func leaves(req *rpc.Request) []*rpc.Request {
	if req.Kind != rpc.KindBatch {
		return []*rpc.Request{req}
	}
	out := make([]*rpc.Request, len(req.Subs))
	for i := range req.Subs {
		out[i] = &req.Subs[i]
	}
	return out
}

// kernelTimer times stand-alone calls: it repeats fn until its duration has
// passed, at least three times, and returns the mean time per call.
type kernelTimer time.Duration

func (k kernelTimer) time(fn func()) time.Duration {
	start := time.Now()
	n := 0
	for n < 3 || time.Since(start) < time.Duration(k) {
		fn()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

func mbPerS(bytes uint64, d time.Duration) float64 { return float64(bytes) / 1e6 / d.Seconds() }
func micros(d time.Duration) float64               { return float64(d) / float64(time.Microsecond) }
func millis(ns int64) float64                      { return float64(ns) / float64(time.Millisecond) }

// kernelMetrics times each layer's public functions on their own, on the
// workload's sample object and over the live loopback transport.
func kernelMetrics(e *env, sample []byte, seed int64, timer kernelTimer) (map[string]float64, error) {
	m := map[string]float64{}
	f, err := lpq.Open(sample)
	if err != nil {
		return nil, fmt.Errorf("opening sample object: %w", err)
	}
	footer := f.Footer()

	// lpq and snappy: decode every chunk of the object, by encoding.
	type chunk struct {
		t    lpq.Type
		meta lpq.ChunkMeta
		raw  []byte
	}
	var chunks []chunk
	for rg := range footer.RowGroups {
		for col, meta := range footer.RowGroups[rg].Chunks {
			raw, err := f.ChunkBytes(rg, col)
			if err != nil {
				return nil, err
			}
			chunks = append(chunks, chunk{footer.Columns[col].Type, meta, raw})
		}
	}
	decode := func(want func(colenc.Encoding) bool) float64 {
		var rawBytes uint64
		d := timer.time(func() {
			rawBytes = 0
			for _, c := range chunks {
				if want(c.meta.Encoding) {
					if _, err := lpq.DecodeChunk(c.t, c.meta, c.raw); err == nil {
						rawBytes += c.meta.RawSize
					}
				}
			}
		})
		if rawBytes == 0 {
			return 0
		}
		return mbPerS(rawBytes, d)
	}
	m["lpq.decode_mb_per_s"] = decode(func(colenc.Encoding) bool { return true })
	m["lpq.decode_dict_mb_per_s"] = decode(func(e colenc.Encoding) bool { return e == colenc.Dict })
	m["lpq.decode_plain_mb_per_s"] = decode(func(e colenc.Encoding) bool { return e == colenc.Plain })
	var snappyOut uint64
	d := timer.time(func() {
		snappyOut = 0
		for _, c := range chunks {
			if c.meta.Compressed {
				if b, err := snappy.Decode(c.raw); err == nil {
					snappyOut += uint64(len(b))
				}
			}
		}
	})
	m["snappy.decode_mb_per_s"] = 0
	if snappyOut > 0 {
		m["snappy.decode_mb_per_s"] = mbPerS(snappyOut, d)
	}

	// lpq footer parse from the tail probe a streaming Put reads.
	footerSize, err := lpq.FooterSize(sample)
	if err != nil {
		return nil, err
	}
	tail := sample[len(sample)-footerSize:]
	m["lpq.footer_parse_us"] = micros(timer.time(func() {
		_, _ = lpq.ParseFooterTail(tail, uint64(len(sample))) // parsed once above; only the time matters
	}))

	// sql: parse a three-leaf query, and compare one decoded numeric column.
	const q = "SELECT SUM(a), AVG(b) FROM t WHERE c < 400 AND d < 10 AND e >= 0.05"
	m["sql.parse_us"] = micros(timer.time(func() { _, _ = sql.Parse(q) }))
	m["sql.eval_mrows_per_s"] = 0
	for _, c := range chunks {
		if c.t == lpq.String {
			continue
		}
		col, err := lpq.DecodeChunk(c.t, c.meta, c.raw)
		if err != nil {
			return nil, err
		}
		cmp := &sql.Compare{Column: "x", Op: sql.OpLt, Value: sql.IntLit(25)}
		if c.t == lpq.Float64 {
			cmp.Value = sql.FloatLit(25)
		}
		d := timer.time(func() { _, _ = sql.EvalCompare(cmp, col) })
		m["sql.eval_mrows_per_s"] = float64(col.Len()) / 1e6 / d.Seconds()
		break
	}

	// fac: Algorithm 1 on the object's chunk sizes.
	p := erasure.RS96
	sizes := footer.ChunkSizes()
	var layout fac.Layout
	m["fac.layout_us"] = micros(timer.time(func() {
		layout, _ = fac.ConstructWithBudget(p.N, p.K, sizes, 0.02)
	}))
	m["fac.overhead_vs_optimal"] = layout.OverheadVsOptimal(p.N)

	// erasure and CRC at the shape of the object's first stripe.
	shard := int(layout.Stripes[0].Capacity)
	coder, err := erasure.NewCoder(p)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	shards := make([][]byte, p.N)
	for i := range shards {
		shards[i] = make([]byte, shard)
		if i < p.K {
			rng.Read(shards[i])
		}
	}
	dataBytes := uint64(p.K * shard)
	m["erasure.encode_mb_per_s"] = mbPerS(dataBytes, timer.time(func() { _ = coder.Encode(shards) }))
	lost := [2][]byte{shards[0], shards[1]}
	m["erasure.reconstruct_mb_per_s"] = mbPerS(dataBytes, timer.time(func() {
		shards[0], shards[1] = nil, nil
		_ = coder.Reconstruct(shards)
	}))
	shards[0], shards[1] = lost[0], lost[1]
	m["cluster.crc_mb_per_s"] = mbPerS(uint64(shard), timer.time(func() { cluster.Checksum(shards[0]) }))

	// tcpnet: an empty round trip, and 1 MiB block reads on one connection.
	m["tcpnet.ping_rtt_us"] = micros(timer.time(func() {
		_, _ = e.tcp.Call(0, &rpc.Request{Kind: rpc.KindPing})
	}))
	const bulk = 1 << 20
	if _, err := cluster.CallChecked(e.tcp, 0, &rpc.Request{Kind: rpc.KindPutBlock, BlockID: "bench/bulk", Data: make([]byte, bulk)}); err != nil {
		return nil, fmt.Errorf("storing the bulk block: %w", err)
	}
	m["tcpnet.bulk_mb_per_s"] = mbPerS(bulk, timer.time(func() {
		_, _ = e.tcp.Call(0, &rpc.Request{Kind: rpc.KindGetBlock, BlockID: "bench/bulk"})
	}))

	// metakv: the quorum register over as many replicas as an object's
	// metadata has (k+1), on the live client.
	replicas := make([]int, p.K+1)
	for i := range replicas {
		replicas[i] = i
	}
	kv, err := metakv.New(e.tcp, replicas)
	if err != nil {
		return nil, err
	}
	value := make([]byte, 4096)
	m["metakv.put_us"] = micros(timer.time(func() { _, _ = kv.Put("bench/key", value) }))
	m["metakv.get_us"] = micros(timer.time(func() { _, _, _ = kv.Get("bench/key") }))
	m["metakv.incr_us"] = micros(timer.time(func() { _, _ = kv.Incr("bench/counter") }))
	return m, nil
}

// runTraced measures a workload's layers: a serial untraced pass for the
// tracing overhead, a serial traced pass, a replay of the recorded read-side
// requests into the nodes' handlers without a socket, and the stand-alone
// kernel timings.
func runTraced(ctx context.Context, def workloadDef, cfg runConfig, log io.Writer) (result, error) {
	inst, err := def.build(cfg.seed, cfg.sz)
	if err != nil {
		return result{}, fmt.Errorf("generating inputs: %w", err)
	}
	cfg.setups, cfg.setupFor = 1, 0 // set-up time is an end-to-end metric
	e, _, err := setUp(ctx, inst, cfg)
	if err != nil {
		return result{}, err
	}
	defer e.close()
	clients := inst.clients(e)

	var t tally
	next := make([]int, len(clients))
	serialPass(ctx, e, inst, clients, next, cfg.warmup, false, &t, nil)
	// Untraced and traced slices alternate, so that a drift of the machine
	// during the run falls on both sides of the overhead figure alike.
	const rounds = 6
	var plain, recs []opRec
	cacheBefore := e.store.CacheStats().Meta
	for r := 0; r < rounds; r++ {
		plain = serialPass(ctx, e, inst, clients, next, cfg.window/(4*rounds), false, &t, plain)
		recs = serialPass(ctx, e, inst, clients, next, cfg.window/(2*rounds), true, &t, recs)
	}
	cacheAfter := e.store.CacheStats().Meta

	plainLat, plainTemplates := latencies(plain, true)
	tracedLat, tracedTemplates := latencies(recs, true)
	plainP50, ok1 := templateMeanP50(plainLat, plainTemplates, len(inst.templates))
	tracedP50, ok2 := templateMeanP50(tracedLat, tracedTemplates, len(inst.templates))
	if !ok1 || !ok2 {
		return result{}, fmt.Errorf("a serial pass completed no op of some template (first error: %v)", t.first)
	}

	m := map[string]float64{
		"bench.serial_op_p50_ms":     plainP50,
		"bench.serial_op_p90_ms":     percentileOf(plainLat, 90),
		"bench.trace_overhead_pct":   100 * (tracedP50 - plainP50) / plainP50,
		"bench.background_op_p50_ms": 0,
		"cache.meta_hit_rate":        0,
	}
	if bg, _ := latencies(recs, false); len(bg) > 0 {
		m["bench.background_op_p50_ms"] = summarize(bg).P50
	}
	if hits, misses := cacheAfter.Hits-cacheBefore.Hits, cacheAfter.Misses-cacheBefore.Misses; hits+misses > 0 {
		m["cache.meta_hit_rate"] = float64(hits) / float64(hits+misses)
	}
	spans := tapMetrics(e, inst, recs, m)
	storeMetrics(inst, recs, m)
	km, err := kernelMetrics(e, inst.sample, cfg.seed, kernelTimer(cfg.kernel))
	if err != nil {
		return result{}, err
	}
	for name, v := range km {
		m[name] = v
	}

	res := result{
		Correct:   t.failed.Load() == 0,
		Attempted: t.attempted.Load(),
		Failed:    t.failed.Load(),
		Metrics:   map[string]metric{},
	}
	for _, spec := range perLayerSpec {
		v, ok := m[spec.name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", spec.name)
		}
		res.Metrics[spec.name] = metric{v, spec.unit}
	}
	if len(m) != len(perLayerSpec) {
		return result{}, fmt.Errorf("measured %d per-layer metrics, the list has %d", len(m), len(perLayerSpec))
	}
	fmt.Fprintf(log, "workload %s seed %d traced: 1 client, serial, %d untraced and %d traced measured ops\n",
		def.name, cfg.seed, len(plainLat), len(tracedLat))
	printMetrics(log, res.Metrics, nil)
	if t.first != nil {
		fmt.Fprintf(log, "  first failure: %v\n", t.first)
	}
	if cfg.traceTo != "" {
		if err := writeSpans(cfg.traceTo, spans); err != nil {
			return result{}, err
		}
		fmt.Fprintf(log, "  %d spans written to %s\n", len(spans), cfg.traceTo)
	}
	return res, nil
}

// latencies returns the wall times and templates of the measured ops of a
// serial pass, or of its background ops.
func latencies(recs []opRec, primary bool) (lat []time.Duration, templates []int) {
	for _, r := range recs {
		if r.primary == primary {
			lat = append(lat, time.Duration(r.end-r.start))
			templates = append(templates, r.out.template)
		}
	}
	return lat, templates
}

// tapMetrics fills in what the client tap (T), the block-store tap (B) and
// the replay of read-side requests (R) say about the measured ops of a
// traced pass, per op, and returns every span for the span file.
func tapMetrics(e *env, inst *instance, recs []opRec, m map[string]float64) []span {
	callsByOp := make([][]callRec, len(recs))
	for _, c := range e.rec.calls {
		if c.op >= 0 && c.op < len(recs) {
			callsByOp[c.op] = append(callsByOp[c.op], c)
		}
	}
	var ops, wallNS, selfNS, callNS, handleNS, blockNS int64
	var nCalls, reqBytes, respBytes, blockBytes, allocs uint64
	var cost rpc.Cost
	var spans []span
	handleByKind := map[rpc.Kind]int64{}
	for i, r := range recs {
		spans = append(spans, span{Op: i, Name: "op", Node: -1, Kind: inst.templates[r.out.template],
			StartNS: r.start, EndNS: r.end, Bytes: r.out.payload})
		for _, c := range callsByOp[i] {
			spans = append(spans, span{Op: i, Name: "client.Call", Node: c.node, Kind: c.kind.String(),
				StartNS: c.start, EndNS: c.end, Bytes: c.reqBytes + c.respBytes})
		}
		if !r.primary {
			continue
		}
		ivs := make([]interval, 0, len(callsByOp[i]))
		for _, c := range callsByOp[i] {
			ivs = append(ivs, interval{c.start, c.end})
			nCalls++
			callNS += c.end - c.start
			reqBytes += c.reqBytes
			respBytes += c.respBytes
			cost.Add(c.cost)
			if c.req == nil {
				continue
			}
			for _, leaf := range leaves(c.req) {
				start := e.rec.now()
				e.nodes[c.node].Handle(leaf)
				end := e.rec.now()
				handleNS += end - start
				handleByKind[leaf.Kind] += end - start
				spans = append(spans, span{Op: i, Name: "replay.Handle", Node: c.node, Kind: leaf.Kind.String(),
					StartNS: start, EndNS: end})
			}
		}
		ops++
		wallNS += r.end - r.start
		selfNS += (r.end - r.start) - unionNS(ivs)
		allocs += r.allocs
	}
	for _, b := range e.rec.blocks {
		if b.Op >= 0 && b.Op < len(recs) {
			spans = append(spans, b)
			if recs[b.Op].primary {
				blockNS += b.EndNS - b.StartNS
				blockBytes += b.Bytes
			}
		}
	}
	perOp := func(ns int64) float64 { return millis(ns) / float64(ops) }
	count := func(n uint64) float64 { return float64(n) / float64(ops) }
	m["store.coord_self_ms_per_op"] = perOp(selfNS)
	m["store.allocs_per_op"] = count(allocs)
	m["tcpnet.calls_per_op"] = count(nCalls)
	m["tcpnet.req_bytes_per_op"] = count(reqBytes)
	m["tcpnet.resp_bytes_per_op"] = count(respBytes)
	m["tcpnet.call_ms_per_op"] = perOp(callNS)
	m["tcpnet.wire_ms_per_op"] = perOp(callNS - handleNS)
	m["cluster.handle_ms_per_op"] = perOp(handleNS)
	for _, k := range replayKinds {
		m["cluster.handle_ms."+k.String()] = perOp(handleByKind[k])
	}
	m["cluster.proc_bytes_per_op"] = count(cost.ProcBytes)
	m["cluster.disk_bytes_per_op"] = count(cost.DiskBytes)
	m["cluster.blockstore_ms_per_op"] = perOp(blockNS)
	m["cluster.blockstore_bytes_per_op"] = count(blockBytes)
	m["bench.layers_cover_pct"] = 100 * float64(selfNS+callNS) / float64(wallNS)
	return spans
}

// storeMetrics fills in what the store's own trace tree and statistics (S)
// say about the measured ops of a traced pass.
func storeMetrics(inst *instance, recs []opRec, m map[string]float64) {
	stages := map[string]string{
		"meta": "store.query.meta_ms", "filter": "store.query.filter_ms",
		"project": "store.query.project_ms", "group": "store.query.group_ms",
		"layout": "store.put.layout_ms", "place-stripe": "store.put.place_stripe_ms",
		"replicate-meta": "store.put.replicate_meta_ms", "commit-blocks": "store.put.commit_blocks_ms",
	}
	stageNSs := map[string]int64{}
	var ops, on, off, pruned, batches, queries int
	var peak uint64
	byTemplate := map[string][]time.Duration{}
	for _, r := range recs {
		if !r.primary {
			continue
		}
		ops++
		for span := range stages {
			stageNSs[span] += stageNS(r.tree, span)
		}
		if qs := r.out.query; qs != nil {
			queries++
			on += qs.PushdownOn
			off += qs.PushdownOff
			pruned += qs.PrunedRowGroups
			batches += qs.BatchRPCs
			name := inst.templates[r.out.template]
			byTemplate[name] = append(byTemplate[name], time.Duration(r.end-r.start))
		}
		if ps := r.out.put; ps != nil && ps.PeakPipelineBytes > peak {
			peak = ps.PeakPipelineBytes
		}
	}
	for span, name := range stages {
		m[name] = millis(stageNSs[span]) / float64(ops)
	}
	m["store.pushdown_on_share"], m["store.pruned_row_groups_per_query"], m["store.batch_rpcs_per_query"] = 0, 0, 0
	if on+off > 0 {
		m["store.pushdown_on_share"] = float64(on) / float64(on+off)
	}
	if queries > 0 {
		m["store.pruned_row_groups_per_query"] = float64(pruned) / float64(queries)
		m["store.batch_rpcs_per_query"] = float64(batches) / float64(queries)
	}
	for _, name := range allTemplateNames() {
		m["store.q."+name+"_p50_ms"] = 0
		if lat := byTemplate[name]; len(lat) > 0 {
			m["store.q."+name+"_p50_ms"] = summarize(lat).P50
		}
	}
	m["store.peak_pipeline_bytes"] = float64(peak)
}

// writeSpans writes the spans of a traced run as one JSON array.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
