package store

import (
	"context"
	"fmt"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/sql"
	"github.com/fusionstore/fusion/internal/trace"
)

// This file is the coordinator side of scatter-gather dispatch: the query
// stages and multi-segment Gets plan their per-node sub-requests first, ship
// one KindBatch frame per node, and serve from the coordinator-side fetch
// path only the sub-requests that got no answer. On a small-chunk scan this
// is one round trip per node per stage instead of one per chunk.

// batchCall dispatches subs to one node as scatter-gather frames (chunked at
// rpc.MaxBatchOps) and returns index-aligned sub-responses, with the outer
// responses they arrived in: the sub-responses' payloads alias those frames,
// and one Release per outer response is how a caller done with all of them
// hands the buffers back (see scatter). A transport or outer application error
// fails the whole call — callers treat that as "all subs failed" and fall
// back. When st is non-nil the call enters one ledger operation per frame
// (the whole point: one RPC overhead and one round trip amortized over every
// sub-request in the frame).
func (s *Store) batchCall(ctx context.Context, st *execState, sp *trace.Span, node int, subs []rpc.Request) ([]rpc.Response, []*rpc.Response, error) {
	out := make([]rpc.Response, 0, len(subs))
	var frames []*rpc.Response
	for start := 0; start < len(subs); start += rpc.MaxBatchOps {
		end := min(start+rpc.MaxBatchOps, len(subs))
		req := &rpc.Request{Kind: rpc.KindBatch, Subs: subs[start:end]}
		resp, err := s.callChecked(ctx, sp, node, req)
		if err != nil {
			return nil, nil, err
		}
		if len(resp.Subs) != end-start {
			return nil, nil, fmt.Errorf("store: batch to node %d returned %d sub-responses, want %d",
				node, len(resp.Subs), end-start)
		}
		if st != nil {
			st.mu.Lock()
			st.stats.BatchRPCs++
			st.mu.Unlock()
			st.addOp(metrics.OpCost{
				Node:      node,
				ReqBytes:  req.WireSize(),
				RespBytes: resp.WireSize(),
				DiskBytes: resp.Cost.DiskBytes,
				ProcBytes: resp.Cost.ProcBytes,
			})
		}
		out = append(out, resp.Subs...)
		frames = append(frames, resp)
	}
	return out, frames, nil
}

// chunkLocation resolves the node hosting chunk (rg, ci) under FAC layout
// and builds its wire reference. ok is false when the chunk has no item
// (non-FAC objects, or footer regions).
func chunkLocation(meta *ObjectMeta, rg, ci int, ch lpq.ChunkMeta) (node int, ref rpc.ChunkRef, ok bool) {
	itemIdx := meta.ChunkItemIndex(rg, ci)
	if itemIdx < 0 {
		return 0, rpc.ChunkRef{}, false
	}
	loc := meta.ItemLocs[itemIdx]
	stripe := meta.Stripes[loc.Stripe]
	return stripe.Nodes[loc.Bin], rpc.ChunkRef{
		BlockID: stripe.BlockIDs[loc.Bin],
		Offset:  loc.BinOffset,
		Type:    meta.Footer.Columns[ci].Type,
		Meta:    ch,
	}, true
}

// pushdownOn reports whether operators may run on storage nodes for this
// object: the store executes by pushdown and FAC kept every chunk whole on
// one node. (A Fusion store's fixed-layout fallback objects answer false.)
func (s *Store) pushdownOn(meta *ObjectMeta) bool {
	return s.opts.Exec == ExecPushdown && meta.Mode == LayoutFAC
}

// pushProjection applies the projection pushdown policy (the Cost Equation
// under PushdownAdaptive, §4.3) to one chunk.
func (s *Store) pushProjection(meta *ObjectMeta, ch lpq.ChunkMeta, sel float64) bool {
	if !s.pushdownOn(meta) {
		return false
	}
	switch s.opts.Pushdown {
	case PushdownAlways:
		return true
	case PushdownNever:
		return false
	default:
		return sel*ch.Compressibility() < 1
	}
}

// exprLeaves collects a predicate tree's comparison leaves in evaluation
// order. EvalExpr visits every leaf unconditionally (no short-circuiting),
// so pre-dispatching all of them never does speculative work.
func exprLeaves(e sql.Expr, out []*sql.Compare) []*sql.Compare {
	switch node := e.(type) {
	case *sql.Compare:
		return append(out, node)
	case *sql.Binary:
		return exprLeaves(node.R, exprLeaves(node.L, out))
	case *sql.Not:
		return exprLeaves(node.E, out)
	}
	return out
}

// nodeReq is one planned sub-request and the node it goes to.
type nodeReq struct {
	node int
	req  rpc.Request
}

// scatter is the one dispatch path of every pushed query operator and of
// Get's block prefetch: it ships the planned sub-requests as one KindBatch
// frame per node (frames go out concurrently) and returns index-aligned
// sub-responses. The fallback contract: a nil entry means the sub-request got
// no usable answer — its frame was lost (node down, deadline, transport error)
// or the node failed that one sub-op — and the caller serves it from its
// coordinator-side path (a query's chunk fetch, readBlock's bare call);
// scatter itself never fails an operation. With pushdown impossible
// (baseline, fixed-layout fallback, no WHERE) callers plan nothing, scatter
// does nothing, and every unit of work takes that same fallback. For a query
// (st non-nil) each frame accounts into a forked state, joined in
// node-first-appearance order, so the stage's cost ledger is independent of
// worker scheduling.
//
// The sub-responses alias the reply frames they arrived in, returned beside
// them as the outer responses: a caller that copies out what it wants and is
// then done with every sub-response may Release those (readSegments does);
// dropping them leaves the frames to the collector.
func (s *Store) scatter(ctx context.Context, sp *trace.Span, st *execState, reqs []nodeReq) (subs, frames []*rpc.Response) {
	type nodeGroup struct {
		node   int
		subs   []rpc.Request
		idx    []int // position in reqs of each sub
		sub    *execState
		frames []*rpc.Response
	}
	groups := make(map[int]*nodeGroup)
	var order []*nodeGroup
	for i := range reqs {
		g := groups[reqs[i].node]
		if g == nil {
			g = &nodeGroup{node: reqs[i].node, sub: st.fork()}
			groups[g.node] = g
			order = append(order, g)
		}
		g.subs = append(g.subs, reqs[i].req)
		g.idx = append(g.idx, i)
	}
	subs = make([]*rpc.Response, len(reqs))
	runTasks(s.queryWorkers(), len(order), func(i int) {
		g := order[i]
		resps, outer, err := s.batchCall(ctx, g.sub, sp, g.node, g.subs)
		if err != nil {
			return // whole frame lost: every sub on this node falls back
		}
		g.frames = outer
		for j := range resps {
			if resps[j].Err == "" {
				subs[g.idx[j]] = &resps[j]
			}
		}
	})
	for _, g := range order {
		st.join(g.sub)
		frames = append(frames, g.frames...)
	}
	return subs, frames
}

// filterStage computes the selection bitmap of every row group; a nil entry
// means the row group is provably empty. The stage's leaf pushdowns are
// planned globally — every (row group, leaf) pair a node hosts rides that
// node's one frame, sub-ops carrying the row-group id in Request.RG — after
// the planner's shortcuts, which never touch the network: whole row groups
// pruned (or accepted) by the footer-stats verdict, then per-leaf chunk-stats
// verdicts. Leaves without a pushed bitmap (nothing planned, node down,
// corrupt chunk, lost frame) are evaluated at the coordinator over the
// fetched chunk during consolidation.
func (s *Store) filterStage(st *execState, q *sql.Query, colIdx map[string]int) (map[int]*bitmap.Bitmap, error) {
	meta := st.meta
	rgs := meta.Footer.RowGroups
	push := s.pushdownOn(meta)
	leaves := exprLeaves(q.Where, nil)
	type rgState struct {
		pruned bool // footer stats prove no row matches
		full   bool // no WHERE, or footer stats prove every row matches
		pre    map[*sql.Compare]*bitmap.Bitmap
	}
	states := make([]rgState, len(rgs))
	type leafRef struct {
		rg  int
		cmp *sql.Compare
		ch  lpq.ChunkMeta
	}
	var reqs []nodeReq
	var refs []leafRef // refs[j] is the leaf reqs[j] answers
	for rg := range rgs {
		rs := &states[rg]
		verdict := sql.StatsAll
		if q.Where != nil {
			verdict = rgVerdict(q.Where, meta.Footer, colIdx, rg)
		}
		switch verdict {
		case sql.StatsNone:
			rs.pruned = true
			continue
		case sql.StatsAll:
			rs.full = true
			continue
		}
		rs.pre = make(map[*sql.Compare]*bitmap.Bitmap, len(leaves))
		nRows := rgs[rg].NumRows
		for _, c := range leaves {
			ci := colIdx[c.Column]
			ch := rgs[rg].Chunks[ci]
			// Chunk-level stats shortcut (no I/O at all).
			switch sql.CheckStats(c, meta.Footer.Columns[ci].Type, ch.Stats) {
			case sql.StatsNone:
				rs.pre[c] = bitmap.New(nRows)
				continue
			case sql.StatsAll:
				rs.pre[c] = bitmap.NewFull(nRows)
				continue
			}
			if !push {
				continue
			}
			node, ref, ok := chunkLocation(meta, rg, ci, ch)
			if !ok {
				continue // no item: consolidation fetches the chunk
			}
			reqs = append(reqs, nodeReq{node, rpc.Request{
				Kind: rpc.KindFilter, Chunk: ref, Op: c.Op, Value: c.Value, RG: int32(rg),
			}})
			refs = append(refs, leafRef{rg: rg, cmp: c, ch: ch})
		}
	}
	resps, _ := s.scatter(st.ctx, st.sp, st, reqs)
	for j, resp := range resps {
		if resp == nil {
			continue
		}
		lr := refs[j]
		bm, err := bitmap.Unmarshal(resp.Data)
		if err != nil || bm.Len() != rgs[lr.rg].NumRows {
			continue
		}
		// The filter logically touched the chunk but only the bitmap crossed
		// the network — this is what pulls query read amplification below 1.
		st.sp.Count(trace.BytesRequested, lr.ch.Size)
		st.stats.FilterRPCs++
		states[lr.rg].pre[lr.cmp] = bm
	}
	// Consolidate per row group on the worker pool (the fallback fetches
	// chunks, so this can do real I/O). Each task accounts into a forked
	// state and the forks are joined in row-group order, so the stage's
	// output and cost ledger match a serial run exactly.
	type rgResult struct {
		bm  *bitmap.Bitmap
		sub *execState
		err error
	}
	results := make([]rgResult, len(rgs))
	runTasks(s.queryWorkers(), len(rgs), func(rg int) {
		r := &results[rg]
		rs := &states[rg]
		if rs.pruned {
			return
		}
		nRows := rgs[rg].NumRows
		if rs.full {
			r.bm = bitmap.NewFull(nRows)
			return
		}
		// Row-group boundary is the stage's cancellation checkpoint: once the
		// caller gives up, the remaining row groups do no work.
		if err := st.ctx.Err(); err != nil {
			r.err = err
			return
		}
		r.sub = st.fork()
		leaf := func(c *sql.Compare) (*bitmap.Bitmap, error) {
			if bm, ok := rs.pre[c]; ok {
				return bm, nil
			}
			ci := colIdx[c.Column]
			ch, err := s.openChunk(r.sub, rg, ci)
			if err != nil {
				return nil, err
			}
			defer ch.Release()
			r.sub.stats.CoordProcBytes += rgs[rg].Chunks[ci].RawSize
			return sql.FilterChunk(c, ch)
		}
		bm, err := sql.EvalExpr(q.Where, nRows, leaf)
		if err != nil {
			r.err = err
			return
		}
		if bm.Count() > 0 {
			r.bm = bm // else leave nil: empty after exact filtering
		}
	})
	out := make(map[int]*bitmap.Bitmap, len(rgs))
	for rg := range results {
		r := &results[rg]
		if r.sub != nil {
			st.join(r.sub)
		}
		if r.err != nil {
			return nil, r.err
		}
		if states[rg].pruned {
			st.stats.PrunedRowGroups++
		}
		out[rg] = r.bm
	}
	return out, nil
}

// chunkTask is one unit of projection-stage work: materializing (or in-situ
// aggregating) the selected rows of one chunk. pre is the chunk's pushed
// sub-response; nil means the task fetches the chunk and works locally.
type chunkTask struct {
	rg, ci int
	name   string
	agg    bool // planned as an in-situ aggregation (aggregate pushdown)
	plain  bool // the SELECT list projects the column: its values are wanted
	folds  bool // some aggregate reads the column: a partial is wanted
	sub    *execState
	// dst is where the task's values are decoded: for a plain column its own
	// window of the result column — zero length, capacity clipped to the row
	// group's selected rows, so tasks fill one column in parallel and none can
	// reach its neighbour's rows — otherwise an empty column of the chunk's
	// type.
	dst     lpq.ColumnData
	partial *sql.AggState
	err     error
	pre     *rpc.Response
}

// blockKey identifies one data block of an object: (stripe, bin).
type blockKey struct{ stripe, bin int }
