package store

import (
	"context"
	"fmt"
	"slices"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/lpq"
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
// back. A query's ledger gets one entry per frame (Store.call): one RPC
// overhead and one round trip amortized over every sub-request in it.
func (s *Store) batchCall(ctx context.Context, sp *trace.Span, node int, subs []rpc.Request) ([]rpc.Response, []*rpc.Response, error) {
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
// object: FAC kept every chunk whole on one node. (Fixed-block objects — the
// baseline's, and a Fusion store's fallback — answer false.)
func pushdownOn(meta *ObjectMeta) bool {
	return meta.Mode == LayoutFAC
}

// pushProjection applies the projection pushdown policy to one chunk, of a
// row group whose selection picks sel of its rows and rides the request in
// wire() bytes. Under PushdownAdaptive a projection is pushed iff its reply
// and the selection together are smaller than the stored chunk the
// coordinator would fetch instead. A reply is the selected rows in the
// chunk's own encoding, uncompressed (lpq.Chunk.AppendSelected), estimated as
// sel × Size — or sel × RawSize for a Snappy-compressed chunk, whose encoded
// size the footer does not give. So a full selection is never pushed. This
// departs from §4.3's sel × compressibility < 1, which prices a reply of plain
// values (DESIGN.md).
func (s *Store) pushProjection(meta *ObjectMeta, ch lpq.ChunkMeta, sel float64, wire func() int) bool {
	if !pushdownOn(meta) {
		return false
	}
	switch s.opts.Pushdown {
	case PushdownAlways:
		return true
	case PushdownNever:
		return false
	default:
		reply := ch.Size
		if ch.Compressed {
			reply = ch.RawSize
		}
		return sel*float64(reply)+float64(wire()) < float64(ch.Size)
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
// does nothing, and every unit of work takes that same fallback. Under a
// query's ctx each node's frames are charged to a forked state, joined in
// node-first-appearance order, so the stage's cost ledger is independent of
// worker scheduling.
//
// The sub-responses alias the reply frames they arrived in, returned beside
// them as the outer responses: a caller that copies out what it wants and is
// then done with every sub-response may Release those (readSegments does);
// dropping them leaves the frames to the collector.
func (s *Store) scatter(ctx context.Context, sp *trace.Span, reqs []nodeReq) (subs, frames []*rpc.Response) {
	type nodeGroup struct {
		node   int
		subs   []rpc.Request
		idx    []int // position in reqs of each sub
		ctx    context.Context
		sub    *execState
		frames []*rpc.Response
	}
	groups := make(map[int]*nodeGroup)
	var order []*nodeGroup
	for i := range reqs {
		g := groups[reqs[i].node]
		if g == nil {
			g = &nodeGroup{node: reqs[i].node}
			g.ctx, g.sub = forkCtx(ctx)
			groups[g.node] = g
			order = append(order, g)
		}
		g.subs = append(g.subs, reqs[i].req)
		g.idx = append(g.idx, i)
	}
	subs = make([]*rpc.Response, len(reqs))
	runTasks(s.queryWorkers(), len(order), func(i int) {
		g := order[i]
		resps, outer, err := s.batchCall(g.ctx, sp, g.node, g.subs)
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
	st := ledgerOf(ctx)
	for _, g := range order {
		st.join(g.sub)
		frames = append(frames, g.frames...)
	}
	return subs, frames
}

// stagePlan is a query stage as a value: its tasks, in merge order, and
// every task's pushed sub-requests, flattened in the same order.
type stagePlan struct {
	tasks []stageTask
	reqs  []nodeReq
}

// stageTask is one unit of a query stage — a row group, or one chunk of the
// projection stage — as its planner left it and runStage served it.
type stageTask struct {
	rg     int
	n      int  // sub-requests planned for it (push)
	pruned bool // footer statistics settled it: no work, no I/O
	values bool // a chunk's values: counts PushdownOn, or PushdownOff if not answered
	spills bool // a row group's grouping: counts GroupSpills if not answered
	// Set by runStage: the replies (nil: no usable answer), whether they served
	// the task with no chunk fetched, and the task's accounting and error.
	resps    []*rpc.Response
	answered bool
	sub      *execState
	err      error
}

// push plans one sub-request for the task appended last.
func (p *stagePlan) push(node int, req rpc.Request) {
	p.reqs = append(p.reqs, nodeReq{node, req})
	p.tasks[len(p.tasks)-1].n++
}

// reply is the answer to the task's one sub-request: nil if none was answered.
func (t *stageTask) reply() *rpc.Response {
	if t.n == 0 {
		return nil
	}
	return t.resps[0]
}

// runStage is the one query-stage executor. It applies the rule Fusion runs
// every operator by (§4.3): a pushed operator is served by the node's reply,
// anything else — nothing pushed, no answer, a reply work rejects — by the
// coordinator fetching the chunks and running the same kernel. It ships every
// task's sub-requests in one scatter, runs work (which reports whether a reply
// served the task) for each unpruned task on the worker pool with a forked
// execState, and joins the forks in task order, so the stage's output and cost
// ledger match a serial run exactly. It is also where a stage is counted: a
// pushed sub-request when its reply arrives, a task by its outcome.
func (s *Store) runStage(st *execState, p *stagePlan, work func(i int, sub *execState) (answered bool, err error)) error {
	resps, _ := s.scatter(st.ctx, st.sp, p.reqs)
	for j, resp := range resps {
		if resp == nil {
			continue
		}
		// The op logically touched its chunks though only its reply crossed
		// the network — this is what pulls query read amplification below 1.
		req := &p.reqs[j].req
		touched := req.Chunk.Meta.Size
		switch req.Kind {
		case rpc.KindFilter:
			st.stats.FilterRPCs++
		case rpc.KindProject:
			st.stats.ProjectRPCs++
		case rpc.KindTopK:
			st.stats.TopKRPCs++
		case rpc.KindGroupAgg:
			st.stats.GroupAggRPCs++
			st.stats.PartialGroups += len(resp.Groups)
			st.sp.Count(trace.GroupPartials, uint64(len(resp.Groups)))
			// Each distinct chunk the node read from its own blocks, once; a
			// chunk shipped in Data was counted by its fetch.
			seen := make(map[uint64]bool) // by file offset
			for _, refs := range [2][]rpc.ChunkRef{req.KeyChunks, req.ValChunks} {
				for _, ref := range refs {
					if ref.BlockID != "" && !seen[ref.Meta.Offset] {
						seen[ref.Meta.Offset] = true
						touched += ref.Meta.Size
					}
				}
			}
		}
		st.sp.Count(trace.BytesRequested, touched)
	}
	for i := range p.tasks {
		p.tasks[i].resps, resps = resps[:p.tasks[i].n], resps[p.tasks[i].n:]
	}
	runTasks(s.queryWorkers(), len(p.tasks), func(i int) {
		t := &p.tasks[i]
		if t.pruned {
			return
		}
		// The task boundary is the stage's cancellation checkpoint: once the
		// caller gives up, the remaining tasks do no work.
		if t.err = st.ctx.Err(); t.err != nil {
			return
		}
		t.sub = st.fork()
		t.answered, t.err = work(i, t.sub)
	})
	push := pushdownOn(st.meta)
	for i := range p.tasks {
		t := &p.tasks[i]
		if t.sub != nil {
			st.join(t.sub)
		}
		if t.err != nil {
			return t.err
		}
		switch {
		case t.pruned:
			st.stats.PrunedRowGroups++
		case !push:
		case t.values && t.answered:
			st.stats.PushdownOn++
		case t.values:
			st.stats.PushdownOff++
		case t.spills && !t.answered:
			st.stats.GroupSpills++
			st.sp.Count(trace.GroupSpills, 1)
		}
	}
	return nil
}

// filterStage computes the selection bitmap of every row group; a nil entry
// means the row group is provably empty. The planner's shortcuts never touch
// the network: whole row groups pruned (or accepted) by the footer-stats
// verdict, then per-leaf chunk-stats verdicts. The other leaves are pushed —
// every (row group, leaf) pair a node hosts rides that node's one frame,
// sub-ops carrying the row-group id in Request.RG — and a leaf without a
// pushed bitmap (nothing planned, node down, corrupt chunk, lost frame,
// malformed reply) is evaluated at the coordinator over the fetched chunk.
func (s *Store) filterStage(st *execState, q *sql.Query, colIdx map[string]int) ([]*bitmap.Bitmap, error) {
	meta := st.meta
	rgs := meta.Footer.RowGroups
	push := pushdownOn(meta)
	leaves := exprLeaves(q.Where, nil)
	// leafStats is the chunk-stats verdict on leaf c in row group rg.
	leafStats := func(c *sql.Compare, rg int) sql.StatsVerdict {
		ci := colIdx[c.Column]
		return sql.CheckStats(c, meta.Footer.Columns[ci].Type, rgs[rg].Chunks[ci].Stats)
	}
	out := make([]*bitmap.Bitmap, len(rgs))
	pushed := make([][]*sql.Compare, len(rgs)) // leaves pushed, in sub-request order
	var p stagePlan
	for rg := range rgs {
		verdict := sql.StatsAll
		if q.Where != nil {
			verdict = rgVerdict(q.Where, meta.Footer, colIdx, rg)
		}
		if verdict == sql.StatsAll { // no WHERE, or footer stats prove every row matches
			out[rg] = bitmap.NewFull(rgs[rg].NumRows)
			continue
		}
		p.tasks = append(p.tasks, stageTask{rg: rg, pruned: verdict == sql.StatsNone})
		if verdict == sql.StatsNone || !push {
			continue
		}
		for _, c := range leaves {
			ci := colIdx[c.Column]
			if leafStats(c, rg) != sql.StatsUnknown {
				continue
			}
			if node, ref, ok := chunkLocation(meta, rg, ci, rgs[rg].Chunks[ci]); ok {
				p.push(node, rpc.Request{Kind: rpc.KindFilter, Chunk: ref, Op: c.Op, Value: c.Value, RG: int32(rg)})
				pushed[rg] = append(pushed[rg], c)
			}
		}
	}
	err := s.runStage(st, &p, func(i int, sub *execState) (bool, error) {
		rg := p.tasks[i].rg
		nRows := rgs[rg].NumRows
		fetched := false
		leaf := func(c *sql.Compare) (*bitmap.Bitmap, error) {
			// Chunk-level stats shortcut (no I/O at all).
			switch leafStats(c, rg) {
			case sql.StatsNone:
				return bitmap.New(nRows), nil
			case sql.StatsAll:
				return bitmap.NewFull(nRows), nil
			}
			if j := slices.Index(pushed[rg], c); j >= 0 && p.tasks[i].resps[j] != nil {
				if bm, err := bitmap.Unmarshal(p.tasks[i].resps[j].Data, nRows); err == nil {
					return bm, nil
				}
			}
			fetched = true
			ci := colIdx[c.Column]
			ch, err := s.openChunk(sub, rg, ci)
			if err != nil {
				return nil, err
			}
			defer ch.Release()
			sub.stats.CoordProcBytes += rgs[rg].Chunks[ci].RawSize
			return sql.FilterChunk(c, ch)
		}
		bm, err := sql.EvalExpr(q.Where, nRows, leaf)
		if err == nil && bm.Count() > 0 {
			out[rg] = bm // else leave nil: empty after exact filtering
		}
		return len(pushed[rg]) > 0 && !fetched, err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// chunkTask is the projection stage's part of one chunk's task: the selected
// rows of the chunk, materialized when the SELECT list projects the column,
// else reduced for the aggregates that read it as a GROUP BY with no key.
type chunkTask struct {
	ci    int
	plain bool // the SELECT list projects the column: its values are wanted
	// The aggregates that read the column, as positions in the SELECT list's
	// aggregates, with their argument column (ci, for each) and kinds: the
	// reduction's valIdx and kinds.
	folds  []int
	valIdx []int
	kinds  []sql.AggKind
	// dst is where a plain column's values are decoded: its own window of the
	// result column — zero length, capacity clipped to the row group's
	// selected rows, so tasks fill one column in parallel and none can reach
	// its neighbour's rows.
	dst lpq.ColumnData
	// partials[k] is aggregate folds[k]'s partial state over the selected
	// rows; nil when none came.
	partials []sql.AggState
}

// blockKey identifies one data block of an object: (stripe, bin).
type blockKey struct{ stripe, bin int }
