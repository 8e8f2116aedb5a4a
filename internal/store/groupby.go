package store

import (
	"hash/crc32"
	"sort"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/sql"
)

// This file is the grouped-aggregation stage: GROUP BY queries reduce each
// surviving row group to per-group partial states — on a storage node when
// the stats-driven planner says the partials, plus any chunks shipped to that
// node, are cheaper than the chunks, at the coordinator otherwise — then merge
// the partials in row-group order.
// That per-row-group-partials-merged-in-order reduction is the canonical
// one every execution path shares (pushed, fetched, cached, degraded), so a
// query's groups are bit-identical no matter which mix of paths served it.
// AVG never travels pre-divided: it rides as (sum, count) inside its
// AggState and divides once, at result rendering.

// groupAgg is one aggregate the grouped stage computes: its projection (for
// labels and ORDER BY matching) and its argument column index, -1 for a
// COUNT, which reads no column (readsColumn).
type groupAgg struct {
	proj sql.Projection
	ci   int
}

// groupByStage executes a GROUP BY query over the filtered row groups and
// returns the finished result table (ORDER BY and LIMIT applied, one row
// per group).
func (s *Store) groupByStage(st *execState, q *sql.Query, colIdx map[string]int, rgBitmaps []*bitmap.Bitmap) (*Result, error) {
	meta := st.meta
	keyIdx := make([]int, len(q.GroupBy))
	for i, c := range q.GroupBy {
		keyIdx[i] = colIdx[c]
	}
	// The aggregate list: the SELECT list's aggregates plus hidden ones
	// appearing only in ORDER BY, deduplicated by expression.
	var aggs []groupAgg
	findAgg := func(p sql.Projection) int {
		for i := range aggs {
			a := aggs[i].proj
			if a.Column == p.Column && a.Agg == p.Agg && a.Star == p.Star {
				return i
			}
		}
		return -1
	}
	addAgg := func(p sql.Projection) {
		if findAgg(p) >= 0 {
			return
		}
		ci := -1
		if readsColumn(p) {
			ci = colIdx[p.Column]
		}
		aggs = append(aggs, groupAgg{proj: p, ci: ci})
	}
	for _, p := range q.Projections {
		if p.Agg != sql.AggNone {
			addAgg(p)
		}
	}
	for _, o := range q.OrderBy {
		if o.Proj.Agg != sql.AggNone {
			addAgg(o.Proj)
		}
	}
	kinds := make([]sql.AggKind, len(aggs))
	valIdx := make([]int, len(aggs))
	for i, a := range aggs {
		kinds[i] = a.proj.Agg
		valIdx[i] = a.ci
	}

	// Plan each surviving row group (planGroupPush). A row group of a
	// pushdown object that plans no push spills to the coordinator.
	type rgPush struct {
		rg   int
		plan groupPush
		ok   bool
		data []byte // the shipped chunks' bytes, in plan.ship order
		sub  *execState
	}
	var rgs []rgPush
	for rg := range meta.Footer.RowGroups {
		if bm := rgBitmaps[rg]; bm != nil && bm.Count() > 0 {
			plan, ok := planGroupPush(meta, rg, keyIdx, valIdx, bm.Count())
			rgs = append(rgs, rgPush{rg: rg, plan: plan, ok: ok})
		}
	}
	// The chunks a push ships are fetched first, in one fan-out joined in
	// row-group order: CRC-checked, and rebuilt from parity when corrupt or
	// when their node is down. A row group whose chunks cannot be fetched is
	// grouped at the coordinator.
	runTasks(s.queryWorkers(), len(rgs), func(i int) {
		r := &rgs[i]
		if !r.ok || len(r.plan.ship) == 0 {
			return
		}
		r.sub = st.fork()
		for _, ci := range r.plan.ship {
			raw, err := s.fetchChunkBytes(r.sub, r.rg, ci)
			if err == nil && crc32.ChecksumIEEE(raw) != meta.Footer.RowGroups[r.rg].Chunks[ci].CRC {
				raw, err = s.reconstructChunkBytes(r.sub, r.rg, ci)
			}
			if err != nil {
				r.ok = false
				return
			}
			r.data = append(r.data, raw...)
		}
	})
	var p stagePlan
	for _, r := range rgs {
		if r.sub != nil {
			st.join(r.sub)
		}
		p.tasks = append(p.tasks, stageTask{rg: r.rg, spills: true})
		if r.ok {
			keyRefs, valRefs := groupRefs(meta, r.rg, keyIdx, valIdx, r.plan.ship)
			p.push(r.plan.node, rpc.Request{
				Kind:      rpc.KindGroupAgg,
				Data:      r.data,
				Bitmap:    rgBitmaps[r.rg].Marshal(),
				KeyChunks: keyRefs,
				ValChunks: valRefs,
				AggKinds:  kinds,
				MaxGroups: maxNodeGroups,
			})
		}
	}
	partials := make([][]sql.GroupPartial, len(p.tasks))
	err := s.runStage(st, &p, func(i int, sub *execState) (bool, error) {
		t := &p.tasks[i]
		if pre := t.reply(); pre != nil && acceptGroups(pre.Groups, meta, keyIdx, valIdx, kinds, rgBitmaps[t.rg].Count()) {
			partials[i] = pre.Groups
			return true, nil
		}
		// Nothing pushed, or the pushed attempt failed — node down, it hit
		// the cardinality cap, or what came back is not partials of this
		// grouping: group the row group at the coordinator.
		var err error
		partials[i], err = s.localGroupRG(sub, t.rg, keyIdx, valIdx, kinds, rgBitmaps[t.rg])
		return false, err
	})
	if err != nil {
		return nil, err
	}

	// Merge partials in row-group order — the canonical reduction.
	global := sql.NewGroupTable(kinds, 0)
	for _, part := range partials {
		if err := global.Merge(part); err != nil {
			return nil, err
		}
	}
	groups := global.Sorted()

	// ORDER BY over group keys and aggregate results. Sorted() already put
	// the groups in canonical key order, and the sort below is stable, so
	// canonical key order is the deterministic tie-break (and the default
	// order when there is no ORDER BY at all).
	if len(q.OrderBy) > 0 {
		type orderRef struct {
			key  int // index into the group key tuple, or -1
			agg  int // index into aggs, or -1
			desc bool
		}
		ords := make([]orderRef, len(q.OrderBy))
		for i, o := range q.OrderBy {
			if o.Proj.Agg != sql.AggNone {
				ords[i] = orderRef{key: -1, agg: findAgg(o.Proj), desc: o.Desc}
			} else {
				ords[i] = orderRef{key: q.GroupKeyIndex(o.Proj.Column), agg: -1, desc: o.Desc}
			}
		}
		st.stats.CoordProcBytes += uint64(len(groups)) * 16
		sort.SliceStable(groups, func(i, j int) bool {
			for _, o := range ords {
				var c int
				if o.key >= 0 {
					c = sql.CompareLiterals(groups[i].Key[o.key], groups[j].Key[o.key])
				} else {
					c = sql.CompareLiterals(groups[i].Aggs[o.agg].Result(), groups[j].Aggs[o.agg].Result())
				}
				if c == 0 {
					continue
				}
				if o.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if q.HasLimit && len(groups) > q.Limit {
		groups = groups[:q.Limit]
	}

	// Shape the result table: one column per SELECT item, one row per group.
	res := &Result{Rows: len(groups)}
	for _, p := range q.Projections {
		if p.Agg == sql.AggNone {
			ki := q.GroupKeyIndex(p.Column)
			col := lpq.ColumnData{Type: meta.Footer.Columns[colIdx[p.Column]].Type}
			for gi := range groups {
				appendLiteral(&col, groups[gi].Key[ki])
			}
			res.Columns = append(res.Columns, p.Column)
			res.Data = append(res.Data, col)
			continue
		}
		ai := findAgg(p)
		res.Columns = append(res.Columns, p.String())
		res.Data = append(res.Data, aggColumn(meta, aggs[ai], groups, ai))
	}
	return res, nil
}

// acceptGroups reports whether a node's reply can be partial states of this
// grouping over a row group's selected rows: every selected row in exactly one
// group, keyed by one literal per grouping column, of that column's type, with
// one state per aggregate, of that aggregate's kind, counting its group's rows
// (lpq has no NULLs); MIN/MAX extrema of the argument column's kind. With no
// grouping column that is one group with an empty key. The result renders
// these, so a reply that fails this is treated as no reply at all.
func acceptGroups(groups []sql.GroupPartial, meta *ObjectMeta, keyIdx, valIdx []int, kinds []sql.AggKind, selected int) bool {
	rows := int64(0)
	for gi := range groups {
		g := &groups[gi]
		if len(g.Key) != len(keyIdx) || len(g.Aggs) != len(kinds) || g.Rows < 1 || g.Rows > int64(selected)-rows {
			return false
		}
		rows += g.Rows
		for i, ci := range keyIdx {
			if g.Key[i].Kind != litKindOf(meta.Footer.Columns[ci].Type) {
				return false
			}
		}
		for i, kind := range kinds {
			st := &g.Aggs[i]
			if st.Kind != kind || st.Count != g.Rows {
				return false
			}
			if (kind == sql.AggMin || kind == sql.AggMax) && st.IsString != (meta.Footer.Columns[valIdx[i]].Type == lpq.String) {
				return false
			}
		}
	}
	return rows == int64(selected)
}

// localGroupRG groups one row group at the coordinator: fetch and open the key
// and argument chunks (cache and reconstruction apply as usual) and fold the
// selected rows through the same GroupTable kernel a node would run, yielding
// partials in the same deterministic key order.
func (s *Store) localGroupRG(st *execState, rg int, keyIdx, valIdx []int, kinds []sql.AggKind, bm *bitmap.Bitmap) ([]sql.GroupPartial, error) {
	chs := st.meta.Footer.RowGroups[rg].Chunks
	opened := make(map[int]*lpq.Chunk)
	defer func() {
		for _, ch := range opened {
			ch.Release()
		}
	}()
	var proc uint64
	get := func(ci int) (*lpq.Chunk, error) {
		if ch, ok := opened[ci]; ok {
			return ch, nil
		}
		ch, err := s.openSelected(st, rg, ci, bm)
		if err != nil {
			return nil, err
		}
		opened[ci] = ch
		proc += chs[ci].RawSize
		return ch, nil
	}
	var err error
	keys := make([]*lpq.Chunk, len(keyIdx))
	for i, ci := range keyIdx {
		if keys[i], err = get(ci); err != nil {
			return nil, err
		}
	}
	vals := make([]*lpq.Chunk, len(valIdx))
	for i, ci := range valIdx {
		if ci < 0 {
			continue // a COUNT: no argument column
		}
		if vals[i], err = get(ci); err != nil {
			return nil, err
		}
	}
	st.stats.CoordProcBytes += proc
	g := sql.NewGroupTable(kinds, 0)
	if err := g.AddChunks(keys, vals, bm); err != nil {
		return nil, err
	}
	return g.Sorted(), nil
}

// aggColumn renders one aggregate's per-group values as a result column:
// COUNT is integral, SUM/AVG numeric, MIN/MAX follow the argument column's
// type.
func aggColumn(meta *ObjectMeta, a groupAgg, groups []sql.GroupPartial, ai int) lpq.ColumnData {
	switch a.proj.Agg {
	case sql.AggCount:
		col := lpq.ColumnData{Type: lpq.Int64}
		for gi := range groups {
			col.Ints = append(col.Ints, groups[gi].Aggs[ai].Result().I)
		}
		return col
	case sql.AggMin, sql.AggMax:
		if a.ci >= 0 && meta.Footer.Columns[a.ci].Type == lpq.String {
			col := lpq.ColumnData{Type: lpq.String}
			for gi := range groups {
				col.Strings = append(col.Strings, groups[gi].Aggs[ai].Result().S)
			}
			return col
		}
	}
	col := lpq.ColumnData{Type: lpq.Float64}
	for gi := range groups {
		col.Floats = append(col.Floats, groups[gi].Aggs[ai].Result().F)
	}
	return col
}
