package store

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/sql"
)

// filterTap records the Filter sub-ops a store sends, with the node each went
// to and the reply it got, and the byte ranges of the GetBlocks beside them.
type filterTap struct {
	cluster.Client
	mu      sync.Mutex
	filters []tappedFilter
	gets    []rpc.Request
}

type tappedFilter struct {
	node int
	req  rpc.Request
	err  string // the reply's, or the frame's
}

func (c *filterTap) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	resp, err := c.Client.Call(node, req)
	c.mu.Lock()
	defer c.mu.Unlock()
	subs := req.Subs
	if req.Kind != rpc.KindBatch {
		subs = []rpc.Request{*req}
	}
	for i, sub := range subs {
		switch sub.Kind {
		case rpc.KindFilter, rpc.KindProject, rpc.KindGroupAgg:
			// A conjunction: a Filter's, or the one a fused sub-op carries
			// first (those after it share its leaves).
			if len(sub.Leaves) == 0 || i > 0 && rpc.SameSlice(sub.Leaves, subs[i-1].Leaves) {
				continue
			}
			f := tappedFilter{node: node, req: sub}
			switch {
			case err != nil:
				f.err = err.Error()
			case req.Kind == rpc.KindBatch && i < len(resp.Subs):
				f.err = resp.Subs[i].Err
			case req.Kind != rpc.KindBatch:
				f.err = resp.Err
			}
			c.filters = append(c.filters, f)
		case rpc.KindGetBlock:
			c.gets = append(c.gets, rpc.Request{BlockID: sub.BlockID, Offset: sub.Offset, Length: sub.Length})
		}
	}
	return resp, err
}

func (c *filterTap) reset() {
	c.mu.Lock()
	c.filters, c.gets = nil, nil
	c.mu.Unlock()
}

// replyFormsNames are replyFormsObject's columns.
var replyFormsNames = []string{"id", "price", "qty", "disc", "status", "mode", "comment", "noise", "okey", "ship"}

// conjunctionPredicates are the WHERE clauses of the conjunction tests: a
// range folded on a frame chunk of offsets and one on delta pages, a
// conjunction over dictionary, decimal and run-length chunks, a NOT and an OR
// beside conjuncts, then random predicates of one to five leaves of every
// operator over every column, mixing AND, OR and NOT, their literals drawn
// from the data.
func conjunctionPredicates(groups [][]lpq.ColumnData, n int) []string {
	preds := []string{
		"ship >= -200 AND ship < 700",
		"id >= 500 AND id < 2900 AND okey > 8589934800",
		"qty = 1099511627776 AND disc > 2.0 AND status = 'F' AND price < 500",
		"NOT mode = 'AIR' AND ship < 0 AND ship != -7",
		"(comment < 'carefully final 5' OR noise < 0.5) AND ship > -500 AND ship <= 1000",
	}
	rng := rand.New(rand.NewSource(47))
	leaf := func() string {
		for {
			ci := rng.Intn(len(replyFormsNames))
			col := groups[rng.Intn(len(groups))][ci]
			row := rng.Intn(col.Len())
			var lit string
			switch col.Type {
			case lpq.Int64:
				lit = strconv.FormatInt(col.Ints[row], 10)
			case lpq.Float64:
				if f := col.Floats[row]; !math.IsInf(f, 0) && !math.IsNaN(f) {
					lit = strconv.FormatFloat(f, 'f', -1, 64)
				}
			default:
				lit = "'" + col.Strings[row] + "'"
			}
			if lit != "" {
				op := []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)]
				return replyFormsNames[ci] + " " + op + " " + lit
			}
		}
	}
	var expr func(leaves int) string
	expr = func(leaves int) string {
		var s string
		if leaves == 1 {
			s = leaf()
		} else {
			l := 1 + rng.Intn(leaves-1)
			op := "AND"
			if rng.Intn(3) == 0 {
				op = "OR"
			}
			s = "(" + expr(l) + " " + op + " " + expr(leaves-l) + ")"
		}
		if rng.Intn(6) == 0 {
			s = "NOT " + s
		}
		return s
	}
	for range n {
		preds = append(preds, expr(1+rng.Intn(5)))
	}
	return preds
}

// andPathLeaves splits a WHERE clause as the filter stage must: the leaves
// of its top-level ANDs that are single comparisons, and every other leaf.
func andPathLeaves(e sql.Expr) (and, other []*sql.Compare) {
	var walk func(e sql.Expr, top bool)
	walk = func(e sql.Expr, top bool) {
		switch n := e.(type) {
		case *sql.Compare:
			if top {
				and = append(and, n)
			} else {
				other = append(other, n)
			}
		case *sql.Binary:
			walk(n.L, top && n.Op == sql.OpAnd)
			walk(n.R, top && n.Op == sql.OpAnd)
		case *sql.Not:
			walk(n.E, false)
		}
	}
	walk(e, true)
	return and, other
}

// TestConjunctionEquivalenceMatrix runs the conjunction predicates over an
// object with every page kind under {adaptive, always, never} pushdown x
// {FAC, fixed} layout x {0 to n-k nodes down} x {one leaf's chunk rotten on
// its node, with one node fewer down so its stripe stays recoverable} — each
// predicate with every node up, with some nodes down and with a chunk rotten,
// the predicates taking the down counts in turn — and every result must
// equal the baseline store's exactly. With every node up it
// pins the plan's shape: per row group, the conjunctions sent are one per
// node holding a pushed leaf of the top-level AND — carrying those leaves in
// WHERE order, in a Filter or, where the projection rode the conjunction's
// frame, in its first fused sub-op — plus one per pushed leaf under an OR or
// a NOT. With a chunk rotten, the sub-op that reads it fails, and every leaf
// of it falls back: its chunk is fetched.
func TestConjunctionEquivalenceMatrix(t *testing.T) {
	data, groups := replyFormsObject(t)
	preds := conjunctionPredicates(groups, 7)
	query := func(pred string) string {
		return "SELECT id, price, status, comment FROM obj WHERE " + pred
	}
	base, _ := newSimStore(t, BaselineOptions())
	if _, err := base.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(preds))
	for i, pred := range preds {
		res, err := base.Query(query(pred))
		if err != nil {
			t.Fatalf("baseline %q: %v", pred, err)
		}
		want[i] = resultKey(res)
	}
	for _, layout := range []LayoutMode{LayoutFAC, LayoutFixed} {
		for _, policy := range []PushdownPolicy{PushdownAdaptive, PushdownAlways, PushdownNever} {
			t.Run(fmt.Sprintf("%v/%v", layout, policy), func(t *testing.T) {
				opts := fusionTestOptions()
				opts.Layout, opts.Pushdown = layout, policy
				s, cl := newSimStore(t, opts)
				tap := &filterTap{Client: cl}
				var err error
				if s, err = New(tap, opts); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Put("obj", data); err != nil {
					t.Fatal(err)
				}
				meta, err := s.Meta("obj")
				if err != nil {
					t.Fatal(err)
				}
				if meta.Mode != layout {
					t.Fatalf("the object was laid out %v", meta.Mode)
				}
				check := func(leg string, i int) {
					t.Helper()
					res, err := s.Query(query(preds[i]))
					if err != nil {
						t.Fatalf("%s: %q: %v", leg, preds[i], err)
					}
					if got := resultKey(res); got != want[i] {
						t.Fatalf("%s: %q diverges from the baseline:\n--- got ---\n%.400s\n--- want ---\n%.400s", leg, preds[i], got, want[i])
					}
				}
				n, k := opts.Params.N, opts.Params.K
				rng := rand.New(rand.NewSource(int64(layout)*10 + int64(policy)))
				multi := 0
				for i, pred := range preds {
					tap.reset()
					check("all up", i)
					multi += checkFilterPlan(t, meta, pred, tap.filters)
					// The predicates take the down counts in turn.
					nodes := rng.Perm(n)[:1+i%(n-k)]
					for _, node := range nodes {
						cl.SetDown(node, true)
					}
					check(fmt.Sprintf("nodes %v down", nodes), i)
					for _, node := range nodes {
						cl.SetDown(node, false)
					}
					checkRotten(t, s, cl, tap, meta, pred, rng, i%(n-k), func(leg string) { check(leg, i) })
				}
				if layout == LayoutFAC && multi == 0 {
					t.Fatal("no Filter carried leaves of two columns: the plans test nothing")
				}
			})
		}
	}
}

// checkFilterPlan pins the filter stage's plan of pred, as the conjunctions
// filters the store sent with every node up (filterTap): per row group that footer
// statistics neither prune nor accept, one sub-op per node holding a leaf of
// the top-level AND whose chunk statistics leave it open, with those leaves
// in WHERE order, and one per such leaf under an OR or a NOT. It returns how
// many sub-ops read two columns or more.
func checkFilterPlan(t *testing.T, meta *ObjectMeta, pred string, filters []tappedFilter) (multi int) {
	t.Helper()
	q, err := sql.Parse("SELECT id FROM obj WHERE " + pred)
	if err != nil {
		t.Fatal(err)
	}
	colIdx := map[string]int{}
	for i, c := range meta.Footer.Columns {
		colIdx[c.Name] = i
	}
	and, other := andPathLeaves(q.Where)
	type sub struct {
		node   int
		leaves string
	}
	wantSubs := map[int][]sub{} // by row group
	for rg, rgm := range meta.Footer.RowGroups {
		if !pushdownOn(meta) {
			break
		}
		if v := rgVerdict(q.Where, meta.Footer, colIdx, rg); v != sql.StatsUnknown {
			continue
		}
		open := func(c *sql.Compare) (int, string, bool) {
			ci := colIdx[c.Column]
			if sql.CheckStats(c, meta.Footer.Columns[ci].Type, rgm.Chunks[ci].Stats) != sql.StatsUnknown {
				return 0, "", false
			}
			node, ref, _ := chunkLocation(meta, rg, ci, rgm.Chunks[ci])
			return node, fmt.Sprintf("[%s@%d %v %v]", ref.BlockID, ref.Offset, c.Op, c.Value), true
		}
		var conj []sub
		for _, c := range and {
			node, leaf, ok := open(c)
			if !ok {
				continue
			}
			j := 0
			for j < len(conj) && conj[j].node != node {
				j++
			}
			if j == len(conj) {
				conj = append(conj, sub{node: node})
			}
			conj[j].leaves += leaf
		}
		wantSubs[rg] = conj
		for _, c := range other {
			if node, leaf, ok := open(c); ok {
				wantSubs[rg] = append(wantSubs[rg], sub{node, leaf})
			}
		}
	}
	gotSubs := map[int][]sub{}
	for _, f := range filters {
		var leaves string
		cols := map[uint64]bool{}
		for _, l := range f.req.Leaves {
			leaves += fmt.Sprintf("[%s@%d %v %v]", l.Chunk.BlockID, l.Chunk.Offset, l.Op, l.Value)
			cols[l.Chunk.Meta.Offset] = true
		}
		if len(cols) > 1 {
			multi++
		}
		gotSubs[int(f.req.RG)] = append(gotSubs[int(f.req.RG)], sub{f.node, leaves})
	}
	// Frames arrive node by node, in any order.
	order := func(subs []sub) string {
		slices.SortFunc(subs, func(a, b sub) int { return cmp.Or(a.node-b.node, strings.Compare(a.leaves, b.leaves)) })
		return fmt.Sprint(subs)
	}
	for rg := range meta.Footer.RowGroups {
		if got, want := order(gotSubs[rg]), order(wantSubs[rg]); got != want {
			t.Fatalf("%q, row group %d: Filter sub-ops\n got %s\nwant %s", pred, rg, got, want)
		}
	}
	return multi
}

// checkRotten rots, on its node, the stored chunk of one of pred's leaves in
// the first row group whose filter it takes part in (under fixed layout, the
// first block range the chunk spans), downs down other nodes beside it, runs
// check, and puts the block back. Under FAC with no node down, a Filter that
// read the chunk must fail, and every leaf of each Filter that failed must be
// fetched.
func checkRotten(t *testing.T, s *Store, cl *simnet.Cluster, tap *filterTap, meta *ObjectMeta,
	pred string, rng *rand.Rand, down int, check func(leg string)) {
	t.Helper()
	q, err := sql.Parse("SELECT id FROM obj WHERE " + pred)
	if err != nil {
		t.Fatal(err)
	}
	colIdx := map[string]int{}
	for i, c := range meta.Footer.Columns {
		colIdx[c.Name] = i
	}
	and, other := andPathLeaves(q.Where)
	leaves := append(and, other...)
	c := leaves[rng.Intn(len(leaves))]
	ci := colIdx[c.Column]
	rg := -1
	for r, rgm := range meta.Footer.RowGroups {
		if rgVerdict(q.Where, meta.Footer, colIdx, r) == sql.StatsUnknown &&
			sql.CheckStats(c, meta.Footer.Columns[ci].Type, rgm.Chunks[ci].Stats) == sql.StatsUnknown {
			rg = r
			break
		}
	}
	if rg < 0 {
		check(fmt.Sprintf("%d down, no chunk of %v to rot", down, c))
		return
	}
	ch := meta.Footer.RowGroups[rg].Chunks[ci]
	seg := s.segments(meta, ch.Offset, ch.Size)[0]
	stripe := meta.Stripes[seg.stripe]
	node, id := stripe.Nodes[seg.bin], stripe.BlockIDs[seg.bin]
	bs := cl.Node(node).Blocks
	orig, err := bs.Get(id, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	orig = bytes.Clone(orig) // a block read from a store is read-only
	rotten := bytes.Clone(orig)
	rotten[seg.off+seg.length/2] ^= 0x55
	if err := bs.Put(id, rotten); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := bs.Put(id, orig); err != nil {
			t.Fatal(err)
		}
	}()
	var downed []int
	for _, n := range rng.Perm(cl.NumNodes()) {
		if len(downed) < down && n != node {
			downed = append(downed, n)
			cl.SetDown(n, true)
		}
	}
	defer func() {
		for _, n := range downed {
			cl.SetDown(n, false)
		}
	}()
	tap.reset()
	check(fmt.Sprintf("%v's chunk in row group %d rotten on node %d, nodes %v down", c, rg, node, downed))
	if !pushdownOn(meta) || down > 0 {
		return
	}
	failed := 0
	for _, f := range tap.filters {
		if f.err == "" || int(f.req.RG) != rg {
			continue
		}
		failed++
		for _, l := range f.req.Leaves {
			fetched := false
			for _, g := range tap.gets {
				fetched = fetched || g.BlockID == l.Chunk.BlockID && g.Offset <= l.Chunk.Offset &&
					l.Chunk.Offset+l.Chunk.Meta.Size <= g.Offset+g.Length
			}
			if !fetched {
				t.Fatalf("%q: a Filter of row group %d failed (%s), but its leaf %v %v on %s was not fetched",
					pred, rg, f.err, l.Op, l.Value, l.Chunk.BlockID)
			}
		}
	}
	if failed == 0 {
		t.Fatalf("%q: no Filter of row group %d failed with %v's chunk rotten", pred, rg, c)
	}
}

// TestConjunctionTypeErrorAsBaseline: a leaf whose literal does not fit its
// column fails the query as it does on the baseline, even where the node's
// conjunction would have stopped before it — an empty range on the same
// chunk — and so never evaluated it.
func TestConjunctionTypeErrorAsBaseline(t *testing.T) {
	data, _, _ := makeObject(t, 3, 300, 1)
	const q = "SELECT id FROM obj WHERE qty >= 3 AND qty < 2 AND qty > 'abc'"
	for _, opts := range []Options{BaselineOptions(), fusionTestOptions()} {
		s, _ := newSimStore(t, opts)
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		var typeErr *sql.ErrType
		if _, err := s.Query(q); !errors.As(err, &typeErr) {
			t.Fatalf("%v layout: %q returned %v, want a type error", opts.Layout, q, err)
		}
	}
}

// TestPrunedQueryTypeErrorAsUnpruned: a WHERE literal that does not fit its
// column fails the query with the same type error whether or not the footer
// statistics prune every row group first (no qty is below 0), on the
// baseline and under FAC alike.
func TestPrunedQueryTypeErrorAsUnpruned(t *testing.T) {
	data, _, _ := makeObject(t, 3, 300, 1)
	for _, opts := range []Options{BaselineOptions(), fusionTestOptions()} {
		s, _ := newSimStore(t, opts)
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		var want string
		for _, q := range []string{
			"SELECT id FROM obj WHERE qty > 'abc'",
			"SELECT id FROM obj WHERE qty < 0 AND qty > 'abc'",
			"SELECT COUNT(*) FROM obj WHERE NOT (qty < 0 OR qty > 'abc')",
		} {
			res, err := s.Query(q)
			var typeErr *sql.ErrType
			if !errors.As(err, &typeErr) {
				t.Fatalf("%v layout: %q returned %v (%v), want a type error", opts.Layout, q, res, err)
			}
			if want == "" {
				want = err.Error()
			}
			if err.Error() != want {
				t.Errorf("%v layout: %q failed with %q, want %q", opts.Layout, q, err, want)
			}
		}
	}
}
