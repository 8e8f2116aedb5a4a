package store

import (
	"slices"
	"sort"
	"strings"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/sql"
)

// This file is the ORDER BY execution path for ungrouped queries. The
// general shape materializes the projections (plus hidden order-only
// columns), sorts at the coordinator, and truncates. ORDER BY + LIMIT on a
// single plain column instead pushes a top-k operator to the nodes: each
// row group returns at most k (key, rg, row) candidates, the coordinator
// runs a bounded k-way merge, and only the k winning rows are ever
// projected. Ties always break on global (rg, row) position — the same
// order a stable coordinator sort yields — so every path returns the same
// rows in the same order.

// orderedProjection runs the projection stage and applies the query's ORDER
// BY (LIMIT is applied by the caller).
func (s *Store) orderedProjection(st *execState, q *sql.Query, colIdx map[string]int, rgBitmaps []*bitmap.Bitmap, fz *fusion) (*Result, error) {
	if len(q.OrderColumns()) == 0 {
		// No ORDER BY, or ORDER BY over aggregates only — an ungrouped
		// aggregate result is a single row, so there is nothing to sort.
		return s.projectionStage(st, q, colIdx, rgBitmaps, fz)
	}
	if q.HasLimit && q.Limit > 0 && len(q.OrderBy) == 1 &&
		q.OrderBy[0].Proj.Agg == sql.AggNone && !q.HasAggregates() {
		return s.topKStage(st, q, colIdx, rgBitmaps)
	}
	return s.sortedProjection(st, q, colIdx, rgBitmaps)
}

// sortedProjection is the general ORDER BY path: order-only columns ride
// along as hidden projections, the materialized rows are permuted by a
// stable sort (ties keep row-group-major row order), and the hidden columns
// are stripped before returning.
func (s *Store) sortedProjection(st *execState, q *sql.Query, colIdx map[string]int, rgBitmaps []*bitmap.Bitmap) (*Result, error) {
	projected := make(map[string]bool)
	for _, p := range q.Projections {
		if p.Agg == sql.AggNone {
			projected[p.Column] = true
		}
	}
	hidden := make(map[string]bool)
	for _, c := range q.OrderColumns() {
		if !projected[c] {
			hidden[c] = true
			q.Projections = append(q.Projections, sql.Projection{Column: c})
		}
	}
	res, err := s.projectionStage(st, q, colIdx, rgBitmaps, nil)
	if err != nil {
		return nil, err
	}
	pos := make(map[string]int, len(res.Columns))
	for i, c := range res.Columns {
		pos[c] = i
	}
	n := 0
	if len(res.Data) > 0 {
		n = res.Data[0].Len()
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	st.stats.CoordProcBytes += uint64(n) * 16
	sort.SliceStable(perm, func(a, b int) bool {
		for _, o := range q.OrderBy {
			if o.Proj.Agg != sql.AggNone {
				continue // a scalar aggregate ties every row
			}
			c := compareRows(res.Data[pos[o.Proj.Column]], perm[a], perm[b])
			if c == 0 {
				continue
			}
			if o.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for i := range res.Data {
		res.Data[i] = permuteColumn(res.Data[i], perm)
	}
	// Hidden columns were appended last, so surviving columns keep their
	// SELECT-list positions.
	for len(res.Columns) > 0 && hidden[res.Columns[len(res.Columns)-1]] {
		res.Columns = res.Columns[:len(res.Columns)-1]
		res.Data = res.Data[:len(res.Data)-1]
	}
	return res, nil
}

// topKStage executes ORDER BY <col> [DESC] LIMIT k via top-k pushdown:
// footer bounds prune row groups that provably cannot place, each surviving
// row group yields its local top-k (on the node or at the coordinator), and
// a bounded merge picks the winners — only then are the other projected
// columns materialized, for just those k rows.
func (s *Store) topKStage(st *execState, q *sql.Query, colIdx map[string]int, rgBitmaps []*bitmap.Bitmap) (*Result, error) {
	meta := st.meta
	o := q.OrderBy[0]
	ci := colIdx[o.Proj.Column]
	k := q.Limit
	skip := topKPrunable(meta, ci, rgBitmaps, k, o.Desc)
	push := pushdownOn(meta)
	var p stagePlan
	for rg := range meta.Footer.RowGroups {
		bm := rgBitmaps[rg]
		if bm == nil || bm.Count() == 0 {
			continue
		}
		p.tasks = append(p.tasks, stageTask{rg: rg, pruned: skip[rg]})
		ch := meta.Footer.RowGroups[rg].Chunks[ci]
		if skip[rg] || !push || !planTopKPush(ch, k) {
			continue
		}
		if node, ref, ok := chunkLocation(meta, rg, ci, ch); ok {
			p.push(node, rpc.Request{
				Kind: rpc.KindTopK, Chunk: ref, Bitmap: bm.Marshal(), K: k, Desc: o.Desc, RG: int32(rg),
			})
		}
	}
	rows := make([][]sql.TopRow, len(p.tasks))
	err := s.runStage(st, &p, func(i int, sub *execState) (bool, error) {
		rg := p.tasks[i].rg
		bm := rgBitmaps[rg]
		if pre := p.tasks[i].reply(); pre != nil && acceptTopRows(pre.TopRows, rg, bm.Len(), meta.Footer.Columns[ci].Type, k) {
			rows[i] = pre.TopRows
			return true, nil
		}
		// Coordinator-side fallback (nothing pushed, no answer, or one that
		// is not a top-k of this row group): fetch the order column and run
		// the same top-k kernel a node runs.
		oc, err := s.openSelected(sub, rg, ci, bm)
		if err != nil {
			return false, err
		}
		defer oc.Release()
		sub.stats.CoordProcBytes += meta.Footer.RowGroups[rg].Chunks[ci].RawSize
		tk := sql.NewTopK(k, o.Desc)
		err = tk.PushChunk(oc, bm, int32(rg))
		rows[i] = tk.Rows()
		return false, err
	})
	if err != nil {
		return nil, err
	}
	merged := sql.NewTopK(k, o.Desc)
	for _, r := range rows {
		merged.Merge(r)
	}
	winners := merged.Rows()

	// Materialize the SELECT list for just the winning rows. The winners
	// carry their keys — the order column's values, already in rank order —
	// so only the other columns are projected, and the (rg, row)-ordered
	// projection output is permuted into rank order.
	rest := *q
	rest.Projections = nil
	for _, p := range q.Projections {
		if p.Column != o.Proj.Column {
			rest.Projections = append(rest.Projections, p)
		}
	}
	res := &Result{}
	if len(rest.Projections) > 0 {
		winBm := make([]*bitmap.Bitmap, len(meta.Footer.RowGroups))
		for _, w := range winners {
			if winBm[w.RG] == nil {
				winBm[w.RG] = bitmap.New(meta.Footer.RowGroups[w.RG].NumRows)
			}
			winBm[w.RG].Set(int(w.Row))
		}
		var err error
		if res, err = s.projectionStage(st, &rest, colIdx, winBm, nil); err != nil {
			return nil, err
		}
		// order lists the winners in (rg, row) order, the projection's row
		// order; perm maps each rank to its row there.
		order := make([]int, len(winners))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			wa, wb := winners[order[a]], winners[order[b]]
			return wa.RG < wb.RG || wa.RG == wb.RG && wa.Row < wb.Row
		})
		perm := make([]int, len(winners))
		for row, i := range order {
			perm[i] = row
		}
		for i := range res.Data {
			res.Data[i] = permuteColumn(res.Data[i], perm)
		}
	}
	if len(rest.Projections) == len(q.Projections) {
		return res, nil // the order column is not in the SELECT list
	}
	// Put the order column where the SELECT list first names it.
	at := 0
	for _, p := range q.Projections {
		if p.Column == o.Proj.Column {
			break
		}
		if at < len(res.Columns) && res.Columns[at] == p.Column {
			at++
		}
	}
	res.Columns = slices.Insert(res.Columns, at, o.Proj.Column)
	res.Data = slices.Insert(res.Data, at, keyColumn(meta.Footer.Columns[ci].Type, winners))
	return res, nil
}

// acceptTopRows reports whether a node's reply can be the local top-k of row
// group rg — at most k candidates, each a different row of that row group with
// a key of the order column's type. The winners' positions index the footer
// and the projection of the other columns, and their keys become result
// values, so a reply that fails this is treated as no reply at all.
func acceptTopRows(rows []sql.TopRow, rg, numRows int, t lpq.Type, k int) bool {
	if len(rows) > k {
		return false
	}
	kind := litKindOf(t)
	seen := make(map[int32]struct{}, len(rows))
	for _, r := range rows {
		if int(r.RG) != rg || r.Row < 0 || int(r.Row) >= numRows || r.Key.Kind != kind {
			return false
		}
		if _, dup := seen[r.Row]; dup {
			return false
		}
		seen[r.Row] = struct{}{}
	}
	return true
}

// litKindOf is the kind of literal a value of column type t boxes to.
func litKindOf(t lpq.Type) sql.LitKind {
	switch t {
	case lpq.Int64:
		return sql.LitInt
	case lpq.Float64:
		return sql.LitFloat
	default:
		return sql.LitString
	}
}

// keyColumn is the order column's values for ranked rows: their sort keys.
func keyColumn(t lpq.Type, rows []sql.TopRow) lpq.ColumnData {
	col := lpq.ColumnData{Type: t}
	for _, r := range rows {
		appendLiteral(&col, r.Key)
	}
	return col
}

// appendLiteral appends l's value to col, a column of the type l's kind
// boxes (litKindOf).
func appendLiteral(col *lpq.ColumnData, l sql.Literal) {
	switch col.Type {
	case lpq.Int64:
		col.Ints = append(col.Ints, l.I)
	case lpq.Float64:
		col.Floats = append(col.Floats, l.F)
	default:
		col.Strings = append(col.Strings, l.S)
	}
}

// compareRows orders rows i and j of a result column as sql.CompareLiterals
// orders their values.
func compareRows(col lpq.ColumnData, i, j int) int {
	switch col.Type {
	case lpq.Int64:
		return sql.CompareLiterals(sql.IntLit(col.Ints[i]), sql.IntLit(col.Ints[j]))
	case lpq.Float64:
		return sql.CompareLiterals(sql.FloatLit(col.Floats[i]), sql.FloatLit(col.Floats[j]))
	default:
		return strings.Compare(col.Strings[i], col.Strings[j])
	}
}

// permuteColumn returns col's rows reordered so row i of the output is row
// perm[i] of the input.
func permuteColumn(col lpq.ColumnData, perm []int) lpq.ColumnData {
	out := lpq.ColumnData{Type: col.Type}
	switch col.Type {
	case lpq.Int64:
		out.Ints = make([]int64, len(perm))
		for i, p := range perm {
			out.Ints[i] = col.Ints[p]
		}
	case lpq.Float64:
		out.Floats = make([]float64, len(perm))
		for i, p := range perm {
			out.Floats[i] = col.Floats[p]
		}
	default:
		out.Strings = make([]string, len(perm))
		for i, p := range perm {
			out.Strings[i] = col.Strings[p]
		}
	}
	return out
}
