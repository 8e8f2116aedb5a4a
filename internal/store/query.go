package store

import (
	"context"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/sql"
	"github.com/fusionstore/fusion/internal/trace"
)

// Result is a query's output: filtered column values for plain projections
// and/or aggregate values, plus execution statistics.
type Result struct {
	// Columns and Data are the result table. For an ungrouped query they
	// hold the plain (non-aggregate) projections; for a GROUP BY query they
	// hold one column per SELECT item — group keys and per-group aggregate
	// values alike — with one row per group.
	Columns []string
	Data    []lpq.ColumnData
	// AggLabels and AggValues are the scalar aggregate projections of an
	// ungrouped query (empty for GROUP BY queries, whose aggregates are
	// per-group columns in Data).
	AggLabels []string
	AggValues []sql.Literal
	// Rows is the number of rows selected by the WHERE clause (capped by
	// LIMIT); for a GROUP BY query it is the number of returned groups.
	Rows int
	// Stats describes how the query executed.
	Stats QueryStats
}

// QueryStats reports a query's execution profile. Every pushed operator is
// counted by one rule (runStage): a sub-request counts when its reply
// arrives. Whether the reply was then used is what PushdownOn/PushdownOff and
// GroupSpills report.
type QueryStats struct {
	// Wall is the measured wall-clock time.
	Wall time.Duration
	// Stages is the query's cost ledger for the filter stage and for the
	// projection stage, in an order independent of worker scheduling. Each
	// data-plane reply a node returned is one remote entry, written by
	// Store.call: the node, the request and reply wire sizes, and the disk
	// and processed bytes the node reported. Local entries are the
	// coordinator's own decodes. The store only counts; a latency model prices
	// the ledger (simnet.LatencyModel.QueryTime).
	Stages [2][]metrics.OpCost
	// CoordProcBytes is the uncompressed bytes the coordinator itself
	// scanned, grouped or sorted: its share of the cluster's CPU work.
	CoordProcBytes uint64
	// TrafficBytes is the network traffic this query generated: the remote
	// entries' request and reply bytes.
	TrafficBytes uint64
	// FilterRPCs and ProjectRPCs count pushed filter and projection
	// sub-requests answered; FetchRPCs counts bare block reads (chunk
	// fetches and the survivor reads of a rebuild).
	FilterRPCs, ProjectRPCs, FetchRPCs int
	// BatchRPCs counts the scatter-gather frames — each one network round
	// trip — that carried pushed sub-requests or prefetched blocks, so
	// FilterRPCs+ProjectRPCs-sized work arrives in few BatchRPCs.
	BatchRPCs int
	// GroupAggRPCs and TopKRPCs count grouped-aggregation and top-k
	// pushdown operations (each reduces a whole row group in situ). An
	// ungrouped aggregate is a grouped one with no key, so its pushed
	// chunks count as GroupAggRPCs too.
	GroupAggRPCs, TopKRPCs int
	// PartialGroups counts the per-group partial states received from nodes
	// — the wire payload the stats-driven planner weighed against shipping
	// the raw chunks.
	PartialGroups int
	// GroupSpills counts row groups — for an ungrouped aggregate, chunks —
	// grouped at the coordinator on a pushdown object: the planner predicted
	// the partial states plus the chunks to ship would outweigh the chunks, a
	// chunk to ship could not be fetched, or the push got no usable reply
	// (node down, cardinality cap hit).
	GroupSpills int
	// PushdownOn/PushdownOff count the cost model's per-chunk decisions.
	PushdownOn, PushdownOff int
	// PrunedRowGroups counts row groups skipped via footer statistics
	// (filter-stage min/max pruning and top-k bound pruning).
	PrunedRowGroups int
	// Selectivity is the measured fraction of rows selected.
	Selectivity float64
}

// execState accumulates a query's statistics and cost ledger. Its ctx carries
// the state itself, so every call made under it charges its replies here
// (Store.call). Every concurrent task — a stage's, a scatter's per-node frame,
// a rebuild's survivor read — runs under a forked child, and the children are
// joined back in a deterministic order, so the merged stats and ledger — and
// any latency priced from it — are byte-identical to a serial run.
type execState struct {
	ctx   context.Context // caller's context, carrying this state; tasks observe it
	meta  *ObjectMeta
	nowSt int         // current stage index
	sp    *trace.Span // current stage's trace span (nil when untraced)

	mu    sync.Mutex
	stats QueryStats
}

type ledgerKey struct{}

// ledgerOf returns the query state ctx carries: nil outside a query.
func ledgerOf(ctx context.Context) *execState {
	e, _ := ctx.Value(ledgerKey{}).(*execState)
	return e
}

// forkCtx returns ctx carrying a child of the state ctx carries, and the
// child, which one goroutine owns; outside a query, ctx and nil.
func forkCtx(ctx context.Context) (context.Context, *execState) {
	e := ledgerOf(ctx)
	if e == nil {
		return ctx, nil
	}
	c := &execState{meta: e.meta, nowSt: e.nowSt, sp: e.sp}
	c.ctx = context.WithValue(ctx, ledgerKey{}, c)
	return c.ctx, c
}

// fork returns a child state for one fan-out task, with the parent's stage
// index and span (the span itself is concurrency-safe).
func (e *execState) fork() *execState {
	_, c := forkCtx(e.ctx)
	return c
}

func (e *execState) addOp(op metrics.OpCost) {
	e.mu.Lock()
	e.stats.Stages[e.nowSt] = append(e.stats.Stages[e.nowSt], op)
	if !op.Local {
		e.stats.TrafficBytes += op.ReqBytes + op.RespBytes
	}
	e.mu.Unlock()
}

// join folds a child's accounting back into e. Callers join children in
// task order, which keeps the ledger's op order — and with it the jitter
// draws of a latency model — independent of worker scheduling.
func (e *execState) join(c *execState) {
	if e == nil || c == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s, cs := &e.stats, &c.stats
	for i := range s.Stages {
		s.Stages[i] = append(s.Stages[i], cs.Stages[i]...)
	}
	s.CoordProcBytes += cs.CoordProcBytes
	s.TrafficBytes += cs.TrafficBytes
	s.FilterRPCs += cs.FilterRPCs
	s.ProjectRPCs += cs.ProjectRPCs
	s.FetchRPCs += cs.FetchRPCs
	s.BatchRPCs += cs.BatchRPCs
	s.GroupAggRPCs += cs.GroupAggRPCs
	s.TopKRPCs += cs.TopKRPCs
	s.PartialGroups += cs.PartialGroups
	s.GroupSpills += cs.GroupSpills
	s.PushdownOn += cs.PushdownOn
	s.PushdownOff += cs.PushdownOff
	s.PrunedRowGroups += cs.PrunedRowGroups
}

// Query parses and executes a SELECT statement; the FROM clause names the
// object. Execution follows §4.3/§5: a filter stage that pushes comparisons
// to the nodes hosting the relevant column chunks (after footer-based row
// group pruning), bitmap consolidation at the coordinator, then a
// projection stage with per-chunk cost-based pushdown. Under the baseline
// configuration the needed chunks are instead fetched (and reassembled
// across nodes when split) and processed at the coordinator.
func (s *Store) Query(query string) (*Result, error) {
	return s.QueryContext(context.Background(), query)
}

// QueryContext is Query under a (possibly traced) context. The span tree
// records the filter and projection stages, per-chunk block RPCs, pushdown
// replies, reconstructions and local decodes, plus the bytes-requested vs
// bytes-from-nodes counters behind the read-amplification figure — for a
// pushdown query the amplification drops below 1, which is the paper's
// headline effect.
func (s *Store) QueryContext(ctx context.Context, query string) (*Result, error) {
	qsp, end := s.beginOp(ctx, "Query")
	defer end()
	start := time.Now()
	q, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	msp := qsp.Child("meta")
	meta, err := s.meta(ctx, msp, q.Table)
	msp.End()
	if err != nil {
		return nil, err
	}
	res, err := s.runQuery(ctx, qsp, q, meta, start)
	if err != nil {
		// A cancelled or expired caller must not burn a second full pass —
		// the retry below exists for concurrent overwrites, not deadlines.
		if ctxErr(ctx) != nil {
			return nil, err
		}
		// A concurrent overwrite can garbage-collect the blocks this
		// metadata snapshot points at mid-query. Re-resolve against the
		// quorum and retry once iff the object moved to a newer epoch.
		if fresh := s.refreshedMeta(ctx, qsp, q.Table, meta); fresh != nil {
			return s.runQuery(ctx, qsp, q, fresh, start)
		}
	}
	return res, err
}

// runQuery executes a parsed query against one specific metadata snapshot.
// The parsed query is copied first: star expansion appends to Projections,
// and a retry against fresh metadata must start from the original SELECT
// list, not one already expanded.
func (s *Store) runQuery(ctx context.Context, qsp *trace.Span, orig *sql.Query, meta *ObjectMeta, start time.Time) (*Result, error) {
	qc := *orig
	qc.Projections = append([]sql.Projection(nil), orig.Projections...)
	q := &qc
	st := &execState{meta: meta, sp: qsp}
	st.ctx = context.WithValue(ctx, ledgerKey{}, st)

	// Resolve the SELECT list.
	if q.Star {
		for _, c := range meta.Footer.Columns {
			q.Projections = append(q.Projections, sql.Projection{Column: c.Name})
		}
	}
	colIdx := make(map[string]int, len(meta.Footer.Columns))
	for i, c := range meta.Footer.Columns {
		colIdx[c.Name] = i
	}
	check := func(names []string) error {
		for _, n := range names {
			if _, ok := colIdx[n]; !ok {
				return fmt.Errorf("store: unknown column %q in object %q", n, q.Table)
			}
		}
		return nil
	}
	if err := check(q.FilterColumns()); err != nil {
		return nil, err
	}
	if err := check(q.ProjectionColumns()); err != nil {
		return nil, err
	}
	if err := check(q.GroupBy); err != nil {
		return nil, err
	}
	if err := check(q.OrderColumns()); err != nil {
		return nil, err
	}

	// Stage 1: filter. Produces one bitmap per surviving row group.
	st.nowSt = 0
	st.sp = qsp.Child("filter")
	rgBitmaps, err := s.filterStage(st, q, colIdx)
	st.sp.End()
	if err != nil {
		return nil, err
	}
	selected := 0
	for _, bm := range rgBitmaps {
		if bm != nil {
			selected += bm.Count()
		}
	}
	// Pruned row groups still count toward total rows.
	st.stats.Selectivity = measuredSelectivity(selected, meta.Footer.NumRows())

	// Stage boundary: a caller that gave up during the filter stage must not
	// pay for (or inflict on the cluster) the projection stage.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 2: projection — or grouped aggregation, which produces its own
	// result table (one row per group) and applies ORDER BY/LIMIT itself.
	st.nowSt = 1
	var res *Result
	if len(q.GroupBy) > 0 {
		st.sp = qsp.Child("group")
		res, err = s.groupByStage(st, q, colIdx, rgBitmaps)
		st.sp.End()
		if err != nil {
			return nil, err
		}
	} else {
		st.sp = qsp.Child("project")
		res, err = s.orderedProjection(st, q, colIdx, rgBitmaps)
		st.sp.End()
		if err != nil {
			return nil, err
		}
		res.Rows = selected
		if q.HasLimit {
			truncateResult(res, q.Limit)
		}
	}
	st.stats.Wall = time.Since(start)
	res.Stats = st.stats
	return res, nil
}

// measuredSelectivity is the fraction of an object's rows a query's filter
// selected. A zero-row object (or a fully-pruned query over one) reports 0
// — never NaN — so downstream consumers (the adaptive pushdown cost model,
// stats JSON, dashboards averaging selectivities) see a well-defined value.
func measuredSelectivity(selected, total int) float64 {
	if total <= 0 {
		return 0
	}
	return float64(selected) / float64(total)
}

// rgVerdict folds chunk statistics through the predicate tree, yielding a
// tri-state verdict for a whole row group.
func rgVerdict(e sql.Expr, footer *lpq.Footer, colIdx map[string]int, rg int) sql.StatsVerdict {
	switch node := e.(type) {
	case *sql.Compare:
		ci := colIdx[node.Column]
		ch := footer.RowGroups[rg].Chunks[ci]
		return sql.CheckStats(node, footer.Columns[ci].Type, ch.Stats)
	case *sql.Binary:
		l := rgVerdict(node.L, footer, colIdx, rg)
		r := rgVerdict(node.R, footer, colIdx, rg)
		if node.Op == sql.OpAnd {
			if l == sql.StatsNone || r == sql.StatsNone {
				return sql.StatsNone
			}
			if l == sql.StatsAll && r == sql.StatsAll {
				return sql.StatsAll
			}
			return sql.StatsUnknown
		}
		if l == sql.StatsAll || r == sql.StatsAll {
			return sql.StatsAll
		}
		if l == sql.StatsNone && r == sql.StatsNone {
			return sql.StatsNone
		}
		return sql.StatsUnknown
	case *sql.Not:
		switch rgVerdict(node.E, footer, colIdx, rg) {
		case sql.StatsAll:
			return sql.StatsNone
		case sql.StatsNone:
			return sql.StatsAll
		default:
			return sql.StatsUnknown
		}
	default:
		return sql.StatsUnknown
	}
}

// openChunk brings a chunk's bytes to the coordinator (reassembling across
// blocks/nodes when split) and opens it there — CRC-checked, decompressed and
// indexed, for the same kernels a node runs (lpq.Chunk). This is the
// baseline's only path and Fusion's fallback when the cost model disables
// pushdown. A checksum failure (bit rot on the hosting node) triggers a
// second fetch that reconstructs the chunk's blocks from stripe parity. The
// caller releases the chunk when done with it.
//
// With the cache enabled, opened chunks are cached keyed by (object, epoch,
// row group, column): a repeated scan serves its columns straight from
// memory — no RPC, no CRC, no decompression — and records zero
// bytes-from-nodes. A cached chunk owns its bytes (never a pooled buffer),
// so releasing it is a no-op, and it is shared: kernels only read it.
// OpenChunk verifies the chunk's CRC, so only verified chunks are admitted.
// Concurrent fetches of one chunk are deduplicated by singleflight.
func (s *Store) openChunk(st *execState, rg, ci int) (*lpq.Chunk, error) {
	if !s.cacheOn() {
		return s.openChunkUncached(st, rg, ci)
	}
	key := chunkKeyOf(st.meta, rg, ci)
	ch := st.meta.Footer.RowGroups[rg].Chunks[ci]
	if v, ok := s.cache.Get(key); ok {
		st.sp.Count(trace.BytesRequested, ch.Size)
		st.sp.Count(trace.CacheHits, 1)
		return v.(*lpq.Chunk), nil
	}
	flightKey := fmt.Sprintf("c/%s/e%d/%d/%d", st.meta.Name, st.meta.Epoch, rg, ci)
	v, err, _ := s.cache.Do(flightKey, func() (any, error) {
		c, err := s.openChunkUncached(st, rg, ci)
		if err != nil {
			return nil, err
		}
		c.Own()
		s.cache.Put(key, c, ch.RawSize)
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*lpq.Chunk), nil
}

// openChunkUncached is the actual fetch+open of one chunk.
func (s *Store) openChunkUncached(st *execState, rg, ci int) (*lpq.Chunk, error) {
	raw, err := s.fetchChunkBytes(st, rg, ci)
	if err != nil {
		return nil, err
	}
	meta := st.meta
	ch := meta.Footer.RowGroups[rg].Chunks[ci]
	st.addOp(metrics.OpCost{Local: true, ProcBytes: ch.RawSize})
	dsp := st.sp.Child("decode")
	c, err := lpq.OpenChunk(meta.Footer.Columns[ci].Type, ch, raw)
	dsp.End()
	if err == nil {
		return c, nil
	}
	// Corrupt on-disk copy: rebuild from the stripe's survivors.
	raw, rerr := s.reconstructChunkBytes(st, rg, ci)
	if rerr != nil {
		return nil, fmt.Errorf("store: chunk (%d,%d) corrupt (%v) and unreconstructable: %w", rg, ci, err, rerr)
	}
	st.addOp(metrics.OpCost{Local: true, ProcBytes: ch.RawSize})
	return lpq.OpenChunk(meta.Footer.Columns[ci].Type, ch, raw)
}

// openSelected is openChunk for a consumer about to apply a row selection:
// the chunk must have exactly the selection's rows.
func (s *Store) openSelected(st *execState, rg, ci int, bm *bitmap.Bitmap) (*lpq.Chunk, error) {
	c, err := s.openChunk(st, rg, ci)
	if err != nil {
		return nil, err
	}
	if c.NumRows() != bm.Len() {
		c.Release()
		return nil, fmt.Errorf("store: chunk (%d,%d) has %d rows, bitmap %d", rg, ci, c.NumRows(), bm.Len())
	}
	return c, nil
}

// reconstructChunkBytes rebuilds a chunk's bytes via RS reconstruction,
// bypassing the (possibly corrupt) stored copies of the blocks that hold it.
// The chunk-level CRC cannot say which covering block carries the
// corruption, and rebuilding a block via RS with a silently-corrupt sibling
// as a source would itself produce garbage, so each covering block is
// treated as the suspect in turn: only it is rebuilt from the stripe's other
// blocks, the rest are used as stored, and the first assembly whose chunk
// CRC verifies wins. (Under FAC a chunk has one covering block, hence one
// suspect and no siblings to read.)
func (s *Store) reconstructChunkBytes(st *execState, rg, ci int) ([]byte, error) {
	meta := st.meta
	ch := meta.Footer.RowGroups[rg].Chunks[ci]
	spans := s.segments(meta, ch.Offset, ch.Size)
	stored := make([][]byte, len(spans))
	if len(spans) > 1 {
		for i, sp := range spans {
			// A sibling that is unreadable or fails its own block checksum
			// stays nil and is rebuilt like the suspect.
			stored[i], _, _ = s.fetchBlock(st.ctx, st.sp, meta, sp.stripe, sp.bin, 0, 0, nil)
		}
	}
	for suspect := range spans {
		out := make([]byte, 0, ch.Size)
		ok := true
		for i, sp := range spans {
			block := stored[i]
			if i == suspect || block == nil {
				var err error
				if block, err = s.reconstructBlock(st.ctx, st.sp, meta, sp.stripe, sp.bin); err != nil {
					ok = false
					break
				}
			}
			part, err := sliceBlock(block, sp.off, sp.length)
			if err != nil {
				ok = false
				break
			}
			out = append(out, part...)
		}
		if ok && crc32.ChecksumIEEE(out) == ch.CRC {
			return out, nil
		}
	}
	return nil, fmt.Errorf("store: chunk (%d,%d): no single-block repair restores its checksum", rg, ci)
}

// fetchChunkBytes reads the chunk's on-disk bytes from wherever they live: a
// ranged read of [ch.Offset, ch.Offset+ch.Size) through the one read path,
// so it shares Get's coalescing, cache, degraded fallback and checksum
// accounting. Under FAC that is one segment on one node; under fixed
// blocks the chunk may span several blocks on several nodes (§3.1) — the
// reassembly the paper identifies as the bottleneck. Every reply a node
// serves it is charged by Store.call; a cache hit costs nothing.
func (s *Store) fetchChunkBytes(st *execState, rg, ci int) ([]byte, error) {
	ch := st.meta.Footer.RowGroups[rg].Chunks[ci]
	st.sp.Count(trace.BytesRequested, ch.Size)
	return s.readSegments(st.ctx, st.sp, st.meta, s.segments(st.meta, ch.Offset, ch.Size), ch.Size)
}

// ChunkNodeSpan returns how many distinct nodes hold parts of chunk
// (rg, ci) — 1 under FAC; possibly several under fixed blocks (Fig. 12).
func (s *Store) ChunkNodeSpan(name string, rg, ci int) (int, error) {
	meta, err := s.Meta(name)
	if err != nil {
		return 0, err
	}
	ch := meta.Footer.RowGroups[rg].Chunks[ci]
	nodes := make(map[int]bool)
	for _, g := range s.segments(meta, ch.Offset, ch.Size) {
		nodes[meta.Stripes[g.stripe].Nodes[g.bin]] = true
	}
	return max(1, len(nodes)), nil
}

// projectionStage materializes the SELECT list over the filtered rows.
func (s *Store) projectionStage(st *execState, q *sql.Query, colIdx map[string]int, rgBitmaps []*bitmap.Bitmap) (*Result, error) {
	meta := st.meta
	res := &Result{}

	// Plain projected columns (in SELECT order, deduplicated).
	plainCols := make([]string, 0, len(q.Projections))
	seen := map[string]bool{}
	var aggs []groupAgg
	for _, p := range q.Projections {
		if p.Agg == sql.AggNone && !seen[p.Column] {
			seen[p.Column] = true
			plainCols = append(plainCols, p.Column)
		}
		if p.Agg != sql.AggNone {
			a := groupAgg{proj: p, ci: -1}
			if readsColumn(p) {
				a.ci = colIdx[p.Column]
			}
			aggs = append(aggs, a)
		}
	}
	// The columns read per row group, in SELECT-list order: the plain ones,
	// then those only aggregates read. Each carries the part of its tasks
	// every row group shares.
	needCols := append([]string(nil), plainCols...)
	for _, a := range aggs {
		if a.ci >= 0 {
			needCols = append(needCols, a.proj.Column)
		}
	}
	cols := make([]chunkTask, 0, len(needCols))
	for _, name := range dedupStrings(needCols) {
		c := chunkTask{ci: colIdx[name], plain: seen[name]}
		for j, a := range aggs {
			if a.ci == c.ci {
				c.folds = append(c.folds, j)
				c.valIdx = append(c.valIdx, c.ci)
				c.kinds = append(c.kinds, a.proj.Agg)
			}
		}
		cols = append(cols, c)
	}

	// Each plain result column is sized once, for the rows the filter selected,
	// and every task decodes into its own window of it: no per-chunk value
	// slice, no re-growing, nothing left for the join below to copy.
	selected := 0
	for rg := range meta.Footer.RowGroups {
		if bm := rgBitmaps[rg]; bm != nil {
			selected += bm.Count()
		}
	}
	colData := make(map[string]lpq.ColumnData, len(plainCols))
	for _, name := range plainCols {
		colData[name] = lpq.MakeColumn(meta.Footer.Columns[colIdx[name]].Type, selected)
	}

	// One task per needed chunk, generated in row-group-major, SELECT-list-
	// minor order and merged back in exactly that order, so the result —
	// including float aggregate accumulation order and the cost ledger's
	// entry order — is identical to a serial run. Planning a task also plans
	// its pushdown: a projection the policy pushes, or — for a column only
	// aggregates read — the grouped stage's rule (planGroupPush) with no key,
	// which pushes iff the one partial is smaller than the chunk.
	var p stagePlan
	var chunks []chunkTask // chunks[i] is p.tasks[i]'s chunk
	// A row group's selection is marshalled once, however many of its
	// chunks are pushed; the sub-requests share the bytes.
	wire := make(map[int][]byte)
	selection := func(rg int) []byte {
		if wire[rg] == nil {
			wire[rg] = rgBitmaps[rg].Marshal()
		}
		return wire[rg]
	}
	before := 0 // selected rows of the row groups before rg: where rg's window starts
	for rg, rgMeta := range meta.Footer.RowGroups {
		bm := rgBitmaps[rg]
		if bm == nil || bm.Count() == 0 {
			continue
		}
		for _, c := range cols {
			if !c.plain {
				chunks, p.tasks = append(chunks, c), append(p.tasks, stageTask{rg: rg, spills: true})
				if gp, ok := planGroupPush(meta, rg, nil, c.valIdx, bm.Count()); ok {
					_, vals := groupRefs(meta, rg, nil, c.valIdx, nil)
					p.push(gp.node, rpc.Request{Kind: rpc.KindGroupAgg, Bitmap: selection(rg), ValChunks: vals, AggKinds: c.kinds, MaxGroups: 1})
				}
				continue
			}
			c.dst = colData[meta.Footer.Columns[c.ci].Name].Window(before, bm.Count())
			chunks, p.tasks = append(chunks, c), append(p.tasks, stageTask{rg: rg, values: true})
			if ch := rgMeta.Chunks[c.ci]; s.pushProjection(meta, ch, bm, func() int { return len(selection(rg)) }) {
				if node, ref, ok := chunkLocation(meta, rg, c.ci, ch); ok {
					p.push(node, rpc.Request{Kind: rpc.KindProject, Chunk: ref, Bitmap: selection(rg)})
				}
			}
		}
		before += bm.Count()
	}
	// The per-chunk work — decoding pushed replies, fetching and reducing
	// everything else — runs on the worker pool. Whatever feeds an aggregate
	// is reduced there to one partial per (row group, chunk), merged below in
	// task order: the same reduction shape whether the node, a pushed
	// projection's values or the fetched chunk supplied the rows, so float
	// accumulation is bit-identical no matter which mix of pushed, fetched and
	// cached chunks served the query.
	err := s.runStage(st, &p, func(i int, sub *execState) (answered bool, err error) {
		c, rg, pre := &chunks[i], p.tasks[i].rg, p.tasks[i].reply()
		bm := rgBitmaps[rg]
		if !c.plain {
			// Only aggregates read the column: a GROUP BY with no key, answered
			// by the node or grouped here.
			var groups []sql.GroupPartial
			if pre != nil && acceptGroups(pre.Groups, meta, nil, c.valIdx, c.kinds, bm.Count()) {
				groups, answered = pre.Groups, true
			} else if groups, err = s.localGroupRG(sub, rg, nil, c.valIdx, c.kinds, bm); err != nil {
				return false, err
			}
			if len(groups) == 1 {
				c.partials = groups[0].Aggs
			}
			return answered, nil
		}
		var vals lpq.ColumnData
		if vals, answered, err = s.projectChunk(sub, rg, c.ci, bm, pre, c.dst); err == nil && len(c.folds) > 0 {
			// A projected column's aggregates fold the values it already holds.
			var partial sql.AggState
			partial.AddColumn(vals)
			c.partials = make([]sql.AggState, len(c.folds))
			for k := range c.partials {
				c.partials[k] = partial
			}
		}
		return answered, err
	})
	if err != nil {
		return nil, err
	}
	states := make([]sql.AggState, len(aggs))
	for j, a := range aggs {
		states[j].Kind = a.proj.Agg
		if !readsColumn(a.proj) {
			states[j].AddCount(selected)
		}
	}
	for _, c := range chunks {
		for k := range c.partials {
			states[c.folds[k]].Merge(&c.partials[k])
		}
	}
	for _, name := range plainCols {
		res.Columns = append(res.Columns, name)
		res.Data = append(res.Data, colData[name])
	}
	for j, a := range aggs {
		res.AggLabels = append(res.AggLabels, a.proj.String())
		res.AggValues = append(res.AggValues, states[j].Result())
	}
	return res, nil
}

// projectChunk decodes the selected values of one chunk onto dst (empty on
// entry: see chunkTask.dst) and returns it, and whether pre supplied them.
// Whether to push the projection down or fetch the chunk was decided per chunk
// at planning time (pushProjection). pre, when non-nil, is the pushed
// projection's reply: the selected rows as a chunk of their own in the stored
// chunk's encoding, opened (lpq.OpenReply) and gathered here. Otherwise — not
// pushed, or the pushed attempt got no answer — the chunk is fetched and
// filtered here.
func (s *Store) projectChunk(st *execState, rg, ci int, bm *bitmap.Bitmap, pre *rpc.Response, dst lpq.ColumnData) (lpq.ColumnData, bool, error) {
	if pre != nil {
		ch, err := lpq.OpenReply(dst.Type, bm.Count(), pre.Data)
		if err == nil {
			var vals lpq.ColumnData
			if vals, err = ch.AppendGather(dst, nil); err == nil {
				return vals, true, nil
			}
		}
		// Malformed reply — not a chunk of the column's type and the
		// selection's count of rows, or a value that does not decode: fall
		// through to fetching, which starts dst over.
	}
	ch, err := s.openSelected(st, rg, ci, bm)
	if err != nil {
		return lpq.ColumnData{}, false, err
	}
	defer ch.Release()
	vals, err := ch.AppendGather(dst, bm)
	return vals, false, err
}

// readsColumn reports whether aggregate p reads its argument's values. lpq
// has no NULLs and the dialect no DISTINCT, so COUNT(col) is COUNT(*) over the
// selection: no COUNT reads a column.
func readsColumn(p sql.Projection) bool { return p.Agg != sql.AggCount }

// truncateResult applies a LIMIT clause: returned rows are capped after
// projection (LIMIT does not change which chunks execute, matching S3
// Select's post-filter semantics).
func truncateResult(res *Result, limit int) {
	for i := range res.Data {
		col := &res.Data[i]
		if col.Len() <= limit {
			continue
		}
		switch col.Type {
		case lpq.Int64:
			col.Ints = col.Ints[:limit]
		case lpq.Float64:
			col.Floats = col.Floats[:limit]
		default:
			col.Strings = col.Strings[:limit]
		}
	}
	if res.Rows > limit {
		res.Rows = limit
	}
}

// resultHeaderBytes is WireBytes' allowance for a result's framing.
const resultHeaderBytes = 64

// WireBytes estimates the result's size on the client connection.
func (res *Result) WireBytes() uint64 {
	n := uint64(resultHeaderBytes)
	for _, col := range res.Data {
		switch col.Type {
		case lpq.Int64:
			n += 8 * uint64(len(col.Ints))
		case lpq.Float64:
			n += 8 * uint64(len(col.Floats))
		default:
			for _, s := range col.Strings {
				n += uint64(len(s)) + 1
			}
		}
	}
	n += 16 * uint64(len(res.AggValues))
	return n
}

func dedupStrings(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
