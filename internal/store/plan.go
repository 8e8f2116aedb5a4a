package store

import (
	"slices"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/sql"
)

// This file is the stats-driven planner behind the grouped-aggregation and
// top-k stages. Both decisions are per row group and follow the same shape
// as the projection Cost Equation (§4.3): push the operator down iff what
// comes back over the wire is provably smaller than the chunks the
// coordinator would otherwise have to fetch. The inputs are the lakeshore
// footer statistics — min/max bounds and the distinct-count estimates the
// writer records per chunk — so a plan costs no I/O.

// maxNodeGroups caps the group table a storage node builds for one row
// group. A node exceeding it fails the op (sql.ErrTooManyGroups) and the
// coordinator re-runs that row group locally: past this cardinality the
// partial states would rival the raw chunks anyway, so pushdown has already
// lost.
const maxNodeGroups = 1 << 16

// groupPartialBytes estimates one group's wire size: the Rows counter, a
// literal per key (with headroom for short strings), and a fixed-size
// AggState per aggregate — mirroring rpc.GroupPartialWireSize without
// needing materialized states.
func groupPartialBytes(nKeys, nAggs int) uint64 {
	return 8 + 24*uint64(nKeys) + 48*uint64(nAggs)
}

// estGroups upper-bounds the distinct key tuples a row group can produce,
// as the product of the key chunks' footer distinct estimates capped at the
// selected row count. A missing or saturated estimate (legacy file, or more
// than lpq.DistinctCap distinct values) degrades to the selected count —
// the true worst case.
func estGroups(meta *ObjectMeta, rg int, keyIdx []int, selected int) uint64 {
	worst := uint64(selected)
	est := uint64(1)
	for _, ci := range keyIdx {
		st := meta.Footer.RowGroups[rg].Chunks[ci].Stats
		d := uint64(st.DistinctEst)
		if !st.Valid || d == 0 || d > lpq.DistinctCap {
			return worst
		}
		est *= d
		if est >= worst {
			return worst
		}
	}
	return est
}

// groupPush is one row group's grouped-aggregation plan: the node it runs on,
// the chunks (column indices, in the request's Data order) shipped there from
// other nodes, and the byte sums the planner weighed — fetch, the distinct
// referenced chunks' stored bytes, against push, the estimated partials plus
// each shipped chunk twice (fetched to the coordinator, then sent on).
type groupPush struct {
	node        int
	ship        []int
	fetch, push uint64
}

// planGroupPush plans one row group's grouped aggregation over the distinct
// chunks it reads: keyIdx, then valIdx (-1, a COUNT, reads none). It runs on
// the node holding the most stored bytes of them — the first chunk's node on
// a tie — and the others are shipped there. It pushes iff the object is a
// pushdown one, push < fetch and the estimated cardinality fits the node-side
// cap; with nothing shipped that is the Cost Equation with cardinality
// standing in for selectivity. With no key it is one group: an ungrouped
// aggregate's chunk is pushed to its own node iff one partial is smaller.
func planGroupPush(meta *ObjectMeta, rg int, keyIdx, valIdx []int, selected int) (p groupPush, ok bool) {
	if !pushdownOn(meta) {
		return p, false
	}
	var cols []int
	for _, ci := range append(append([]int(nil), keyIdx...), valIdx...) {
		if ci >= 0 && !slices.Contains(cols, ci) {
			cols = append(cols, ci)
		}
	}
	chs := meta.Footer.RowGroups[rg].Chunks
	nodes := make([]int, len(cols))
	held := make(map[int]uint64) // stored bytes of cols per node
	for i, ci := range cols {
		if nodes[i], _, ok = chunkLocation(meta, rg, ci, chs[ci]); !ok {
			return p, false
		}
		held[nodes[i]] += chs[ci].Size
		p.fetch += chs[ci].Size
	}
	p.node = nodes[0]
	for _, n := range nodes {
		if held[n] > held[p.node] {
			p.node = n
		}
	}
	groups := estGroups(meta, rg, keyIdx, selected)
	p.push = groups * groupPartialBytes(len(keyIdx), len(valIdx))
	for i, ci := range cols {
		if nodes[i] != p.node {
			p.ship = append(p.ship, ci)
			p.push += 2 * chs[ci].Size
		}
	}
	return p, groups <= maxNodeGroups && p.push < p.fetch
}

// groupRefs builds a planned row group's GroupAgg references, index-aligned
// with keyIdx and valIdx: a chunk on the host by its block, a shipped one by
// its range in the request's Data (no BlockID), a COUNT by the zero ref.
func groupRefs(meta *ObjectMeta, rg int, keyIdx, valIdx, ship []int) (keys, vals []rpc.ChunkRef) {
	chs := meta.Footer.RowGroups[rg].Chunks
	ref := func(ci int) rpc.ChunkRef {
		if ci < 0 {
			return rpc.ChunkRef{}
		}
		_, r, _ := chunkLocation(meta, rg, ci, chs[ci])
		var off uint64
		for _, sci := range ship {
			if sci == ci {
				return rpc.ChunkRef{Offset: off, Type: r.Type, Meta: r.Meta}
			}
			off += chs[sci].Size
		}
		return r
	}
	for _, ci := range keyIdx {
		keys = append(keys, ref(ci))
	}
	for _, ci := range valIdx {
		vals = append(vals, ref(ci))
	}
	return keys, vals
}

// planTopKPush decides whether pushing one row group's top-k beats fetching
// the order chunk: a pushed reply is at most k candidates of ~32 wire bytes
// each.
func planTopKPush(ch lpq.ChunkMeta, k int) bool {
	return uint64(k)*32 < ch.Size
}

// topKPrunable returns the live row groups that provably cannot contribute
// to the top k, from the order chunk's footer min/max bounds: a row group is
// skipped when other row groups whose every row sorts strictly ahead of its
// entire range already hold at least k selected rows. This is the top-k
// analogue of filter-stage row-group pruning — whole row groups drop out of
// the scan before any I/O.
func topKPrunable(meta *ObjectMeta, ci int, rgBitmaps []*bitmap.Bitmap, k int, desc bool) map[int]bool {
	type bound struct {
		rg       int
		lo, hi   sql.Literal
		ok       bool
		selected int
	}
	var bs []bound
	for rg := range meta.Footer.RowGroups {
		bm := rgBitmaps[rg]
		if bm == nil || bm.Count() == 0 {
			continue
		}
		b := bound{rg: rg, selected: bm.Count()}
		st := meta.Footer.RowGroups[rg].Chunks[ci].Stats
		if st.Valid {
			b.ok = true
			switch meta.Footer.Columns[ci].Type {
			case lpq.Int64:
				b.lo, b.hi = sql.IntLit(st.MinI), sql.IntLit(st.MaxI)
			case lpq.Float64:
				b.lo, b.hi = sql.FloatLit(st.MinF), sql.FloatLit(st.MaxF)
			default:
				b.lo, b.hi = sql.StringLit(st.MinS), sql.StringLit(st.MaxS)
			}
		}
		bs = append(bs, b)
	}
	skip := make(map[int]bool)
	for _, r := range bs {
		if !r.ok {
			continue
		}
		ahead := 0
		for _, j := range bs {
			if j.rg == r.rg || !j.ok {
				continue
			}
			if (!desc && sql.CompareLiterals(j.hi, r.lo) < 0) ||
				(desc && sql.CompareLiterals(j.lo, r.hi) > 0) {
				ahead += j.selected
			}
		}
		if ahead >= k {
			skip[r.rg] = true
		}
	}
	return skip
}
