package store

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/colenc"
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
// rpc.MaxBatchOps ops) and returns index-aligned sub-responses, with the outer
// responses they arrived in: the sub-responses' payloads alias those frames,
// and one Release per outer response is how a caller done with all of them
// hands the buffers back (see scatter). A transport or outer application error
// fails the whole call — callers treat that as "all subs failed" and fall
// back. A query's ledger gets one entry per frame (Store.call): one RPC
// overhead and one round trip amortized over every sub-request in it.
func (s *Store) batchCall(ctx context.Context, sp *trace.Span, node int, subs []rpc.Request) ([]rpc.Response, []*rpc.Response, error) {
	out := make([]rpc.Response, 0, len(subs))
	var frames []*rpc.Response
	for start, end := 0, 0; start < len(subs); start = end {
		// As many subs as MaxBatchOps admits (Request.Ops), and at least one.
		for ops := 0; end < len(subs) && (end == start || ops+subs[end].Ops() <= rpc.MaxBatchOps); end++ {
			ops += subs[end].Ops()
		}
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
// row group whose selection sel rides the request in wire() bytes. Under
// PushdownAdaptive a projection is pushed iff its reply (replyEstimate) and
// the selection together are smaller than the stored chunk the coordinator
// would fetch instead. So a full selection is never pushed. This departs from
// §4.3's sel × compressibility < 1, which prices a reply of plain values
// (DESIGN.md).
func (s *Store) pushProjection(meta *ObjectMeta, ch lpq.ChunkMeta, sel *bitmap.Bitmap, wire func() int) bool {
	if !pushdownOn(meta) {
		return false
	}
	switch s.opts.Pushdown {
	case PushdownAlways:
		return true
	case PushdownNever:
		return false
	default:
		return replyEstimate(ch, sel)+float64(wire()) < float64(ch.Size)
	}
}

// replyEstimate prices a pushed projection's reply, the selected rows in the
// chunk's own encoding, uncompressed (lpq.Chunk.AppendSelected): the selected
// share of Size — or of RawSize for a Snappy-compressed chunk, whose encoded
// size the footer does not give. A frame-of-reference chunk's delta pages
// reply with the steps between selected rows, each the sum of the steps over
// as many rows as the selection skips, so a reply row is wider than a stored
// one by up to log2 of the selection's widest gap (Bitmap.MaxGap), and never
// wider than the chunk's span, where offsets hold it. A stored row is priced
// at its bits in the chunk, or at the mean step between its values if that
// is wider: a constant stride stores none. The footer does not say which
// pages hold deltas, so every frame chunk is priced so, never below the
// selected share of Size, which an offset page's reply is.
func replyEstimate(ch lpq.ChunkMeta, sel *bitmap.Bitmap) float64 {
	share := sel.Selectivity()
	if ch.Compressed {
		return share * float64(ch.RawSize)
	}
	est := share * float64(ch.Size)
	if ch.Encoding != colenc.FOR || !ch.Stats.Valid || ch.NumValues < 2 {
		return est
	}
	gap := sel.MaxGap()
	if gap < 2 {
		return est
	}
	span, rows := uint64(ch.Stats.MaxI)-uint64(ch.Stats.MinI), float64(ch.NumValues)
	stored := max(8*float64(ch.Size)/rows, math.Log2(float64(span)/rows)) // bits a row
	row := min(stored+math.Log2(float64(gap)), float64(bits.Len64(span)))
	return max(est, float64(sel.Count())*row/8)
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

// splitConjuncts flattens a WHERE clause's top-level ANDs and returns, in
// WHERE order, the conjuncts that are single comparisons — the AND path — and
// the leaves of the others, each under an OR or a NOT.
func splitConjuncts(e sql.Expr, and, other []*sql.Compare) ([]*sql.Compare, []*sql.Compare) {
	switch node := e.(type) {
	case nil:
		return and, other
	case *sql.Compare:
		return append(and, node), other
	case *sql.Binary:
		if node.Op == sql.OpAnd {
			and, other = splitConjuncts(node.L, and, other)
			return splitConjuncts(node.R, and, other)
		}
	}
	return and, exprLeaves(e, other)
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

// touchedBytes is the stored size of the chunks a pushed sub-op read from its
// node's blocks, each distinct chunk once (by file offset), as the node's
// frame opens it once: a range's two bounds, or GROUP BY x with SUM(x), read
// one chunk. A chunk shipped in Data was counted by its fetch, and the leaves
// of a selection shared with the sub-op before it (shared) by that sub-op.
func touchedBytes(req *rpc.Request, shared bool) uint64 {
	var n uint64
	var seen []uint64
	add := func(ref *rpc.ChunkRef) {
		if ref.BlockID != "" && !slices.Contains(seen, ref.Meta.Offset) {
			seen = append(seen, ref.Meta.Offset)
			n += ref.Meta.Size
		}
	}
	add(&req.Chunk)
	for i := range req.Leaves {
		if !shared {
			add(&req.Leaves[i].Chunk)
		}
	}
	for _, refs := range [2][]rpc.ChunkRef{req.KeyChunks, req.ValChunks} {
		for i := range refs {
			add(&refs[i])
		}
	}
	return n
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
		req := &p.reqs[j].req
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
		}
		// The op logically touched its chunks though only its reply crossed
		// the network — this is what pulls query read amplification below 1.
		shared := j > 0 && len(req.Leaves) > 0 && rpc.SameSlice(req.Leaves, p.reqs[j-1].req.Leaves)
		st.sp.Count(trace.BytesRequested, touchedBytes(req, shared))
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
// means the row group is provably empty — or, in a fusion, that its bitmap
// stayed on the node (fusion.selected). The planner's shortcuts never touch
// the network: whole row groups pruned (or accepted) by the footer-stats
// verdict, then per-leaf chunk-stats verdicts. The other leaves are pushed,
// every row group's sub-ops riding its nodes' one frame each, tagged with the
// row group in Request.RG. A conjunction is pushed, not a leaf: the leaves of
// the WHERE clause's top-level ANDs that one node holds go as one Filter, in
// WHERE order, whose reply is their AND; a leaf under an OR or a NOT goes
// alone. A reply stands in for every leaf it covers — the first leaf
// evaluated takes it, the others a full bitmap, so no bitmap is ANDed twice
// or aliased. A leaf without a usable reply (nothing planned, node down,
// corrupt chunk, lost frame, malformed reply), and so every leaf of a
// conjunction without one, is evaluated at the coordinator over the fetched
// chunk.
//
// fuse, if any, is the projection stage's tasks (projectionTasks): a row
// group whose unsettled leaves are all one node's conjunction sends them
// with it where their chunks sit on that node (fusion.plan).
func (s *Store) filterStage(st *execState, q *sql.Query, colIdx map[string]int, fuse []chunkTask) ([]*bitmap.Bitmap, *fusion, error) {
	meta := st.meta
	rgs := meta.Footer.RowGroups
	push := pushdownOn(meta)
	andPath, other := splitConjuncts(q.Where, nil, nil)
	leaves := append(andPath, other...)
	index := make(map[*sql.Compare]int, len(leaves)) // a leaf's position in leaves
	for i, c := range leaves {
		index[c] = i
	}
	// leafStats is the chunk-stats verdict on leaf c in row group rg.
	leafStats := func(c *sql.Compare, rg int) sql.StatsVerdict {
		ci := colIdx[c.Column]
		return sql.CheckStats(c, meta.Footer.Columns[ci].Type, rgs[rg].Chunks[ci].Stats)
	}
	// eval evaluates the WHERE clause on row group rg: each leaf by its
	// chunk's statistics, else by replied's bitmap (nil: none), else over the
	// fetched chunk.
	eval := func(sub *execState, rg int, replied func(c *sql.Compare) *bitmap.Bitmap) (bm *bitmap.Bitmap, fetched bool, err error) {
		nRows := rgs[rg].NumRows
		bm, err = sql.EvalExpr(q.Where, nRows, func(c *sql.Compare) (*bitmap.Bitmap, error) {
			switch leafStats(c, rg) {
			case sql.StatsNone:
				return bitmap.New(nRows), nil
			case sql.StatsAll:
				return bitmap.NewFull(nRows), nil
			}
			if bm := replied(c); bm != nil {
				return bm, nil
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
		})
		return bm, fetched, err
	}
	fz := &fusion{rgs: make([]fusedRG, len(rgs)), eval: func(sub *execState, rg int) (*bitmap.Bitmap, error) {
		bm, _, err := eval(sub, rg, func(*sql.Compare) *bitmap.Bitmap { return nil })
		return bm, err
	}}
	out := make([]*bitmap.Bitmap, len(rgs))
	// pushed[rg*len(leaves)+i] is the sub-op of row group rg's task that
	// answers leaves[i], or -1.
	pushed := make([]int, len(rgs)*len(leaves))
	for i := range pushed {
		pushed[i] = -1
	}
	var conj []int // a row group's conjunctions' nodes: the AND path plans them first, so sub-op j is conj[j]'s
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
		base, unsettled := len(p.reqs), 0
		conj = conj[:0]
		for i, c := range leaves {
			ci := colIdx[c.Column]
			if leafStats(c, rg) != sql.StatsUnknown {
				continue
			}
			unsettled++
			node, ref, ok := chunkLocation(meta, rg, ci, rgs[rg].Chunks[ci])
			if !ok {
				continue
			}
			leaf := rpc.FilterLeaf{Chunk: ref, Op: c.Op, Value: c.Value}
			onAND := i < len(andPath)
			if j := slices.Index(conj, node); onAND && j >= 0 {
				p.reqs[base+j].req.Leaves = append(p.reqs[base+j].req.Leaves, leaf)
				pushed[rg*len(leaves)+i] = j
				continue
			}
			if onAND {
				conj = append(conj, node)
			}
			pushed[rg*len(leaves)+i] = p.tasks[len(p.tasks)-1].n
			p.push(node, rpc.Request{Kind: rpc.KindFilter, Leaves: []rpc.FilterLeaf{leaf}, RG: int32(rg)})
		}
		if t := &p.tasks[len(p.tasks)-1]; len(fuse) > 0 && t.n == 1 && len(conj) == 1 && len(p.reqs[base].req.Leaves) == unsettled {
			fz.plan(&p, meta, rg, fuse)
		}
	}
	err := s.runStage(st, &p, func(i int, sub *execState) (bool, error) {
		t := &p.tasks[i]
		rg := t.rg
		nRows := rgs[rg].NumRows
		fr := &fz.rgs[rg]
		nf := t.n - len(fr.cis) // the Filter's sub-ops; the fused ones follow
		fr.resps = t.resps[nf:]
		if n, ok := fr.settled(nf, nRows); ok {
			fr.n = n
			return true, nil
		}
		// Each reply decoded once (nil if unusable), and taken by the first
		// leaf it answers. A fusion's conjunction is reply 0: its Filter's, or
		// the selection a declined projection carried.
		type reply struct {
			bm    *bitmap.Bitmap
			taken bool
		}
		replies := make([]reply, max(nf, min(len(fr.cis), 1)))
		for j, resp := range t.resps[:nf] {
			if resp != nil {
				replies[j].bm, _ = bitmap.Unmarshal(resp.Data, nRows)
			}
		}
		for _, resp := range fr.resps {
			if replies[0].bm == nil && resp != nil && resp.Size > 0 && len(resp.Data) > 0 {
				replies[0].bm, _ = bitmap.Unmarshal(resp.Data, nRows)
			}
		}
		bm, fetched, err := eval(sub, rg, func(c *sql.Compare) *bitmap.Bitmap {
			j := pushed[rg*len(leaves)+index[c]]
			switch {
			case j < 0 || replies[j].bm == nil:
				return nil
			case replies[j].taken:
				return bitmap.NewFull(nRows)
			}
			replies[j].taken = true
			return replies[j].bm
		})
		if err == nil && bm.Count() > 0 {
			out[rg] = bm // else leave nil: empty after exact filtering
		}
		return t.n > 0 && !fetched, err
	})
	if err != nil {
		return nil, nil, err
	}
	return out, fz, nil
}

// fusion hands the projection stage the tasks that rode the filter stage's
// frames, by row group, and eval, a row group's WHERE evaluated here.
type fusion struct {
	rgs  []fusedRG
	eval func(st *execState, rg int) (*bitmap.Bitmap, error)
}

// fusedRG is one row group's part of a fusion: the columns whose tasks rode,
// their replies (nil: no usable answer), and the rows the replies agree on.
type fusedRG struct {
	cis   []int
	resps []*rpc.Response
	n     int
}

// plan adds to row group rg's task, whose one sub-op is the conjunction, a
// Project of each plain column on its node, and a keyless GroupAgg of each
// column only aggregates read that planGroupPush sends there, each carrying
// the leaves; the node prices each projection (cluster.ProjectionPays). With
// no task left for the projection stage, the Filter is dropped.
func (fz *fusion) plan(p *stagePlan, meta *ObjectMeta, rg int, fuse []chunkTask) {
	at := len(p.reqs) - 1
	conj, left := p.reqs[at], false
	for _, c := range fuse {
		req, node, ok := rpc.Request{Kind: rpc.KindProject, Leaves: conj.req.Leaves, RG: int32(rg)}, 0, false
		if c.plain {
			node, req.Chunk, ok = chunkLocation(meta, rg, c.ci, meta.Footer.RowGroups[rg].Chunks[c.ci])
		} else if gp, pushes := planGroupPush(meta, rg, nil, c.valIdx, 0); pushes {
			node, ok, req.Kind, req.AggKinds, req.MaxGroups = gp.node, true, rpc.KindGroupAgg, c.kinds, 1
			_, req.ValChunks = groupRefs(meta, rg, nil, c.valIdx, nil)
		}
		if left = left || !ok || node != conj.node; ok && node == conj.node {
			p.push(node, req)
			fz.rgs[rg].cis = append(fz.rgs[rg].cis, c.ci)
		}
	}
	if !left {
		p.reqs = slices.Delete(p.reqs, at, at+1)
		p.tasks[len(p.tasks)-1].n--
	}
}

// settled reports whether the fused replies alone settle the row group, and
// its selected rows: no Filter went, and every fused sub-op answered, none
// declined, all with one count of selected rows.
func (fr *fusedRG) settled(filters, rows int) (int, bool) {
	n := -1
	for _, r := range fr.resps {
		if r == nil || r.Size > 0 || n >= 0 && r.Matches != n {
			return 0, false
		}
		n = r.Matches
	}
	return n, filters == 0 && n >= 0 && n <= rows
}

// selected is the rows row group rg's filter selected, given its bitmap bm.
func (fz *fusion) selected(rg int, bm *bitmap.Bitmap) int {
	switch {
	case bm != nil:
		return bm.Count()
	case fz != nil:
		return fz.rgs[rg].n
	}
	return 0
}

// reply returns the reply of column ci's fused task in row group rg (nil if
// it has none usable, or declined), and whether the task rode the frame.
func (fz *fusion) reply(rg, ci int) (*rpc.Response, bool) {
	if fz == nil || !slices.Contains(fz.rgs[rg].cis, ci) {
		return nil, false
	}
	if r := fz.rgs[rg].resps[slices.Index(fz.rgs[rg].cis, ci)]; r != nil && r.Size == 0 {
		return r, true
	}
	return nil, true
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
