package store

import (
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

// planGroupPush decides whether pushing one row group's grouped aggregation
// to its node beats fetching the chunks: the estimated partial-state payload
// must undercut the key and argument chunks' stored bytes, and the estimated
// cardinality must fit the node-side cap.
func planGroupPush(meta *ObjectMeta, rg int, keyIdx, valIdx []int, selected int) bool {
	groups := estGroups(meta, rg, keyIdx, selected)
	if groups > maxNodeGroups {
		return false
	}
	var fetch uint64
	chs := meta.Footer.RowGroups[rg].Chunks
	for _, ci := range keyIdx {
		fetch += chs[ci].Size
	}
	for _, ci := range valIdx {
		if ci >= 0 {
			fetch += chs[ci].Size
		}
	}
	return groups*groupPartialBytes(len(keyIdx), len(valIdx)) < fetch
}

// groupChunkRefs resolves a row group's key and aggregate-argument chunks
// and reports whether they are co-located on one node — grouped pushdown
// needs the whole key/argument row visible to a single node. valIdx entries
// of -1 (COUNT(*)) yield an empty ChunkRef.
func groupChunkRefs(meta *ObjectMeta, rg int, keyIdx, valIdx []int) (node int, keyRefs, valRefs []rpc.ChunkRef, ok bool) {
	chs := meta.Footer.RowGroups[rg].Chunks
	node = -1
	resolve := func(ci int) (rpc.ChunkRef, bool) {
		n, ref, ok := chunkLocation(meta, rg, ci, chs[ci])
		if !ok {
			return rpc.ChunkRef{}, false
		}
		if node < 0 {
			node = n
		} else if node != n {
			return rpc.ChunkRef{}, false
		}
		return ref, true
	}
	for _, ci := range keyIdx {
		ref, rok := resolve(ci)
		if !rok {
			return 0, nil, nil, false
		}
		keyRefs = append(keyRefs, ref)
	}
	for _, ci := range valIdx {
		if ci < 0 {
			valRefs = append(valRefs, rpc.ChunkRef{}) // COUNT(*): no column
			continue
		}
		ref, rok := resolve(ci)
		if !rok {
			return 0, nil, nil, false
		}
		valRefs = append(valRefs, ref)
	}
	return node, keyRefs, valRefs, true
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
