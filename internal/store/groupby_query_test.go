package store

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/sql"
)

// This file is the GROUP BY / ORDER BY+LIMIT equivalence suite: every
// execution path — pushdown, cached, baseline reassembly, and degraded
// (node down) — must return the exact same result
// table, bit-for-bit for floats. The shared canonical reduction (per-row-
// group partials merged in row-group order) is what makes that exactness
// possible; these tests are its regression net.

// resultKey renders a Result's table deterministically, with floats printed
// as raw bits so "close enough" can never mask a divergent reduction.
func resultKey(res *Result) string {
	var s strings.Builder
	fmt.Fprintf(&s, "rows=%d cols=%v aggs=%v\n", res.Rows, res.Columns, res.AggLabels)
	for i, col := range res.Data {
		fmt.Fprintf(&s, "col %d type=%v ", i, col.Type)
		switch col.Type {
		case lpq.Int64:
			fmt.Fprintf(&s, "%v", col.Ints)
		case lpq.Float64:
			for _, f := range col.Floats {
				fmt.Fprintf(&s, " %016x", math.Float64bits(f))
			}
		default:
			fmt.Fprintf(&s, "%q", col.Strings)
		}
		s.WriteString("\n")
	}
	for i, v := range res.AggValues {
		fmt.Fprintf(&s, "agg %d kind=%d i=%d f=%016x s=%q\n", i, v.Kind, v.I, math.Float64bits(v.F), v.S)
	}
	return s.String()
}

var groupEquivQueries = []string{
	"SELECT flag, COUNT(*), SUM(price), AVG(price), MIN(qty), MAX(qty) FROM obj WHERE qty < 40 GROUP BY flag",
	"SELECT flag, COUNT(*), MIN(price) FROM obj WHERE qty < 40 GROUP BY flag ORDER BY flag",
	"SELECT flag, COUNT(price), MAX(flag) FROM obj GROUP BY flag",
	"SELECT qty, COUNT(*) FROM obj GROUP BY qty ORDER BY COUNT(*) DESC, qty LIMIT 5",
	"SELECT flag, MIN(comment), AVG(qty) FROM obj GROUP BY flag ORDER BY flag DESC",
	"SELECT flag, qty, SUM(price) FROM obj WHERE price > 20 GROUP BY flag, qty ORDER BY flag, qty LIMIT 10",
	"SELECT flag AS f, COUNT(*) AS n FROM obj GROUP BY f ORDER BY n DESC LIMIT 2",
	"SELECT flag, SUM(price) FROM obj GROUP BY flag ORDER BY AVG(price) DESC",
	"SELECT id, price FROM obj WHERE qty >= 10 ORDER BY price DESC LIMIT 7",
	"SELECT id FROM obj ORDER BY price LIMIT 5",
	"SELECT price FROM obj ORDER BY price DESC LIMIT 3",
	"SELECT comment, price, id, price FROM obj WHERE qty < 3 ORDER BY price LIMIT 6",
	"SELECT id, flag, qty FROM obj WHERE qty > 30 ORDER BY flag, qty DESC LIMIT 9",
	"SELECT id, qty FROM obj WHERE flag = 'A' ORDER BY qty",
	"SELECT id FROM obj ORDER BY id LIMIT 4",
	"SELECT flag, COUNT(*) FROM obj GROUP BY flag LIMIT 0",
	"SELECT id FROM obj LIMIT 0",
	"SELECT COUNT(*), SUM(price), AVG(price), MIN(qty), MAX(qty) FROM obj WHERE qty < 40",
	"SELECT MIN(comment), MAX(flag), AVG(qty), COUNT(price) FROM obj",
}

// partialForger rewrites every aggregate state of every GroupAgg reply that
// passes through it.
type partialForger struct {
	cluster.Client
	forge  func(*sql.AggState)
	forged atomic.Int64 // frames go out concurrently
}

func (c *partialForger) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	resp, err := c.Client.Call(node, req)
	if err != nil {
		return resp, err
	}
	for i := range resp.Subs {
		if i < len(req.Subs) && req.Subs[i].Kind == rpc.KindGroupAgg {
			for _, g := range resp.Subs[i].Groups {
				for j := range g.Aggs {
					c.forge(&g.Aggs[j])
					c.forged.Add(1)
				}
			}
		}
	}
	return resp, nil
}

// splitRowGroup returns a row group of obj whose chunks of columns key and arg
// live on different nodes, and those nodes; it fails the test if every row
// group holds the two on one node, which would leave shipping untested.
func splitRowGroup(t *testing.T, s *Store, key, arg int) (rg, keyNode, argNode int) {
	t.Helper()
	meta, err := s.Meta("obj")
	if err != nil {
		t.Fatal(err)
	}
	for rg, rgm := range meta.Footer.RowGroups {
		kn, _, _ := chunkLocation(meta, rg, key, rgm.Chunks[key])
		an, _, _ := chunkLocation(meta, rg, arg, rgm.Chunks[arg])
		if kn != an {
			return rg, kn, an
		}
	}
	t.Fatal("every row group holds the key and argument chunks on one node: nothing is shipped")
	return 0, 0, 0
}

// The columns of makeObject.
const colQty, colPrice, colFlag = 1, 2, 3

// TestGroupOrderEquivalenceMatrix runs every query under five
// configurations — pushdown, cached pushdown (second run against a warm
// cache), the fixed-block baseline with coordinator-side execution, and
// pushdown with every group partial forged (counts 2^40 rows too large;
// extrema of the wrong kind) — and requires bit-identical results.
func TestGroupOrderEquivalenceMatrix(t *testing.T) {
	type config struct {
		name  string
		opts  Options
		warm  bool                // query twice, keep the cache-served run
		forge func(*sql.AggState) // rewrites every pushed group partial
	}
	cached := fusionTestOptions()
	cached.CacheBytes = 64 << 20
	configs := []config{
		{name: "pushdown", opts: fusionTestOptions()},
		{name: "pushdown-cached", opts: cached, warm: true},
		{name: "baseline", opts: BaselineOptions()},
		{name: "forged counts", opts: fusionTestOptions(), forge: func(a *sql.AggState) { a.Count += 1 << 40 }},
		{name: "forged extrema kinds", opts: fusionTestOptions(), forge: func(a *sql.AggState) {
			if a.Kind == sql.AggMin || a.Kind == sql.AggMax {
				a.IsString = !a.IsString
			}
		}},
	}

	// Row groups must be big enough that partial states undercut compressed
	// chunks, or the cost model (correctly) refuses to push anything.
	for _, in := range []struct {
		rgs, rows int
		split     bool // some row group holds flag and price on different nodes: pushdown ships chunks
	}{{3, 6000, false}, {5, 4000, true}} {
		t.Run(fmt.Sprintf("%dx%d", in.rgs, in.rows), func(t *testing.T) {
			data, _, _ := makeObject(t, in.rgs, in.rows, 95)
			results := make(map[string]map[string]*Result) // config -> query -> result
			for _, cfg := range configs {
				s, cl := newSimStore(t, cfg.opts)
				var forger *partialForger
				if cfg.forge != nil {
					forger = &partialForger{Client: cl, forge: cfg.forge}
					var err error
					if s, err = New(forger, cfg.opts); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := s.Put("obj", data); err != nil {
					t.Fatal(err)
				}
				if cfg.name == "pushdown" && in.split {
					splitRowGroup(t, s, colFlag, colPrice)
				}
				results[cfg.name] = make(map[string]*Result)
				for _, q := range groupEquivQueries {
					res, err := s.Query(q)
					if err != nil {
						t.Fatalf("%s: %q: %v", cfg.name, q, err)
					}
					if cfg.warm {
						if res, err = s.Query(q); err != nil {
							t.Fatalf("%s warm: %q: %v", cfg.name, q, err)
						}
					}
					results[cfg.name][q] = res
				}
				if forger != nil && forger.forged.Load() == 0 {
					t.Errorf("%s: no group partial came back to forge", cfg.name)
				}
			}

			ref := results["baseline"]
			for _, cfg := range configs {
				for _, q := range groupEquivQueries {
					got, want := resultKey(results[cfg.name][q]), resultKey(ref[q])
					if got != want {
						t.Errorf("%s diverges from baseline on %q:\n--- got ---\n%s--- want ---\n%s", cfg.name, q, got, want)
					}
				}
			}

			// The pushed configuration must actually push: grouped row groups as
			// partial-state RPCs, top-k row groups as TopK RPCs. With every node up,
			// whatever the planner pushes is answered: no row group of a pushed
			// grouping spills.
			var groupRPCs, topkRPCs, partials int
			for q, res := range results["pushdown"] {
				groupRPCs += res.Stats.GroupAggRPCs
				topkRPCs += res.Stats.TopKRPCs
				partials += res.Stats.PartialGroups
				if res.Stats.GroupAggRPCs > 0 && res.Stats.GroupSpills > 0 {
					t.Errorf("%q: %d row groups pushed, %d spilled", q, res.Stats.GroupAggRPCs, res.Stats.GroupSpills)
				}
			}
			if groupRPCs == 0 || partials == 0 {
				t.Errorf("pushdown never issued GroupAgg RPCs (rpcs=%d partials=%d)", groupRPCs, partials)
			}
			if topkRPCs == 0 {
				t.Error("pushdown never issued TopK RPCs")
			}
		})
	}
}

// TestGroupOrderDegradedEquivalence: with a storage node down, grouped and
// top-k queries spill to coordinator-side execution over reconstructed
// chunks and still return bit-identical results — and a grouping whose key
// chunk is shipped to its argument's node does too, with either node down or
// the shipped chunk's block rotten.
func TestGroupOrderDegradedEquivalence(t *testing.T) {
	data, _, _ := makeObject(t, 3, 600, 96)
	opts := fusionTestOptions()
	s, cl := newSimStore(t, opts)
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT flag, COUNT(*), SUM(price), AVG(price) FROM obj WHERE qty < 35 GROUP BY flag",
		"SELECT qty, COUNT(*) FROM obj GROUP BY qty ORDER BY COUNT(*) DESC, qty LIMIT 6",
		"SELECT id, price FROM obj WHERE qty >= 5 ORDER BY price DESC LIMIT 8",
	}
	want := make(map[string]string)
	for _, q := range queries {
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = resultKey(res)
	}
	for node := 0; node < 3; node++ {
		cl.SetDown(node, true)
		for _, q := range queries {
			res, err := s.Query(q)
			if err != nil {
				t.Fatalf("node %d down: %q: %v", node, q, err)
			}
			if got := resultKey(res); got != want[q] {
				t.Errorf("node %d down: %q diverges:\n--- got ---\n%s--- want ---\n%s", node, q, got, want[q])
			}
		}
		cl.SetDown(node, false)
	}

	// Split placement: a row group whose key chunk (flag) is shipped to the
	// node holding its argument chunk (price). With the key's node down the key
	// is rebuilt from parity and still shipped; with the argument's node down
	// the row group spills; with the key's stored bytes rotten the shipped
	// bytes are rebuilt. The same table every time.
	data, _, _ = makeObject(t, 5, 4000, 95)
	s, cl = newSimStore(t, opts)
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	const split = "SELECT flag, COUNT(*), SUM(price), AVG(price), MIN(price) FROM obj WHERE qty < 40 GROUP BY flag"
	rg, keyNode, argNode := splitRowGroup(t, s, colFlag, colPrice)
	rot := func() {
		meta, err := s.Meta("obj")
		if err != nil {
			t.Fatal(err)
		}
		_, ref, _ := chunkLocation(meta, rg, colFlag, meta.Footer.RowGroups[rg].Chunks[colFlag])
		bs := cl.Node(keyNode).Blocks
		block, err := bs.Get(ref.BlockID, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		block = bytes.Clone(block) // a block read from a store is read-only
		block[ref.Offset+ref.Meta.Size/2] ^= 0x55
		if err := bs.Put(ref.BlockID, block); err != nil {
			t.Fatal(err)
		}
	}
	var wantSplit string
	for _, leg := range []struct {
		name  string
		down  int // -1: none
		rot   bool
		check func(QueryStats) bool
	}{
		{"all up", -1, false, func(st QueryStats) bool { return st.GroupAggRPCs == 5 && st.GroupSpills == 0 }},
		{"key's node down", keyNode, false, func(st QueryStats) bool { return st.GroupAggRPCs > 0 }},
		{"argument's node down", argNode, false, func(st QueryStats) bool { return st.GroupSpills > 0 }},
		{"key's block rotten", -1, true, func(st QueryStats) bool { return st.GroupAggRPCs == 5 && st.GroupSpills == 0 }},
	} {
		if leg.rot {
			rot()
		}
		if leg.down >= 0 {
			cl.SetDown(leg.down, true)
		}
		res, err := s.Query(split)
		if leg.down >= 0 {
			cl.SetDown(leg.down, false)
		}
		if err != nil {
			t.Fatalf("split placement, %s: %v", leg.name, err)
		}
		if wantSplit == "" {
			wantSplit = resultKey(res)
		}
		if got := resultKey(res); got != wantSplit {
			t.Errorf("split placement, %s: diverges:\n--- got ---\n%s--- want ---\n%s", leg.name, got, wantSplit)
		}
		if !leg.check(res.Stats) {
			t.Errorf("split placement, %s: %d row groups pushed, %d spilled", leg.name, res.Stats.GroupAggRPCs, res.Stats.GroupSpills)
		}
		// Only a checksum fault is counted in node health: the rot was read,
		// and rebuilt.
		if got := s.Health().Total().Checksums > 0; got != leg.rot {
			t.Errorf("split placement, %s: checksum failure counted %v, want %v", leg.name, got, leg.rot)
		}
	}
}

// TestFloatAggregateDeterminism is the regression for the fan-out float-sum
// fix: SUM/AVG over a float column must produce byte-identical AggValues on
// every run, at every worker-pool size, pushed or fetched. The reduction is defined as per-(row group, chunk) partials
// merged in task order, so no schedule and no transport can reorder it.
// Run with -race to catch any unsynchronized accumulation.
func TestFloatAggregateDeterminism(t *testing.T) {
	data, _, _ := makeObject(t, 4, 500, 97)
	const query = "SELECT SUM(price), AVG(price), COUNT(*) FROM obj WHERE qty < 45"

	bits := func(res *Result) [2]uint64 {
		return [2]uint64{math.Float64bits(res.AggValues[0].F), math.Float64bits(res.AggValues[1].F)}
	}

	serial := fusionTestOptions()
	serial.QueryWorkers = 1
	refStore, _ := newSimStore(t, serial)
	if _, err := refStore.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	refRes, err := refStore.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	want := bits(refRes)

	for _, cfg := range []struct {
		name string
		mut  func(*Options)
	}{
		{"parallel", func(o *Options) { o.QueryWorkers = 8 }},
		{"parallel-cached", func(o *Options) { o.QueryWorkers = 8; o.CacheBytes = 64 << 20 }},
		{"baseline", func(o *Options) {}},
	} {
		opts := cfg.name
		var o Options
		if cfg.name == "baseline" {
			o = BaselineOptions()
		} else {
			o = fusionTestOptions()
		}
		cfg.mut(&o)
		s, _ := newSimStore(t, o)
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			res, err := s.Query(query)
			if err != nil {
				t.Fatalf("%s run %d: %v", opts, i, err)
			}
			if got := bits(res); got != want {
				t.Fatalf("%s run %d: AggValues bits %x, want %x — the ordered reduction leaked schedule or path dependence",
					opts, i, got, want)
			}
		}
	}
}

// TestTopKStatsPruning: a strictly increasing column lets the footer bounds
// prove that later row groups cannot place in an ascending top-k, so they
// are skipped without any I/O.
func TestTopKStatsPruning(t *testing.T) {
	data, _, _ := makeObject(t, 4, 400, 98)
	s, _ := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	// id is globally increasing: row group 0 alone holds the 5 smallest.
	res, err := s.Query("SELECT id FROM obj ORDER BY id LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PrunedRowGroups < 3 {
		t.Errorf("top-k bound pruning skipped %d row groups, want >= 3", res.Stats.PrunedRowGroups)
	}
	wantIDs := []int64{0, 1, 2, 3, 4}
	if len(res.Data) != 1 || len(res.Data[0].Ints) != 5 {
		t.Fatalf("unexpected shape: %+v", res.Data)
	}
	for i, id := range res.Data[0].Ints {
		if id != wantIDs[i] {
			t.Fatalf("top-5 ids = %v, want %v", res.Data[0].Ints, wantIDs)
		}
	}
}

// TestTopKOrderColumnComesWithTheWinners: the winners of a pushed top-k carry
// their keys, so the order column's values are in hand and only the other
// SELECT-list columns are projected — none at all when the order column is the
// whole list — and what comes back is the rows a full sort of the object's
// values ranks first, ties by position, the order column bit for bit.
func TestTopKOrderColumnComesWithTheWinners(t *testing.T) {
	const rgs, rows, k = 4, 1500, 7
	data, _, groups := makeObject(t, rgs, rows, 97)
	opts := fusionTestOptions()
	opts.Pushdown = PushdownAlways
	s, _ := newSimStore(t, opts)
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	// Ground truth: every row as (price, position), sorted price-descending.
	type row struct {
		price float64
		id    int64
		rg    int
	}
	var all []row
	for rg, cols := range groups {
		for i, p := range cols[2].Floats {
			all = append(all, row{p, cols[0].Ints[i], rg})
		}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].price > all[b].price })
	winnerRGs := map[int]bool{}
	for _, r := range all[:k] {
		winnerRGs[r.rg] = true
	}

	res, err := s.Query(fmt.Sprintf("SELECT id, price FROM obj ORDER BY price DESC LIMIT %d", k))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) != 2 || res.Columns[0] != "id" || res.Columns[1] != "price" || res.Data[1].Len() != k {
		t.Fatalf("result shape: columns %v, %d values", res.Columns, res.Data[1].Len())
	}
	for i, r := range all[:k] {
		if res.Data[0].Ints[i] != r.id || math.Float64bits(res.Data[1].Floats[i]) != math.Float64bits(r.price) {
			t.Fatalf("rank %d is (%d, %v), want (%d, %v)", i, res.Data[0].Ints[i], res.Data[1].Floats[i], r.id, r.price)
		}
	}
	if res.Stats.TopKRPCs != rgs || res.Stats.ProjectRPCs != len(winnerRGs) || res.Stats.FetchRPCs != 0 {
		t.Fatalf("%d top-k, %d projection and %d fetch RPCs; want %d, %d (id alone, once per winning row group) and 0",
			res.Stats.TopKRPCs, res.Stats.ProjectRPCs, res.Stats.FetchRPCs, rgs, len(winnerRGs))
	}
	res, err = s.Query(fmt.Sprintf("SELECT price FROM obj ORDER BY price DESC LIMIT %d", k))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) != 1 || res.Data[0].Len() != k || res.Stats.ProjectRPCs != 0 || res.Stats.FetchRPCs != 0 {
		t.Fatalf("order column alone: %d columns, %d projection and %d fetch RPCs; want 1, 0, 0",
			len(res.Data), res.Stats.ProjectRPCs, res.Stats.FetchRPCs)
	}
	for i, r := range all[:k] {
		if math.Float64bits(res.Data[0].Floats[i]) != math.Float64bits(r.price) {
			t.Fatalf("rank %d is %v, want %v", i, res.Data[0].Floats[i], r.price)
		}
	}
}

// TestGroupByCardinalitySpill: grouping by a near-unique key makes the
// planner (distinct estimate ~= row count) refuse pushdown, spilling to
// coordinator-side grouping — and the result is still exact.
func TestGroupByCardinalitySpill(t *testing.T) {
	data, _, _ := makeObject(t, 2, 700, 99)
	s, _ := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("SELECT id, COUNT(*) FROM obj GROUP BY id ORDER BY id LIMIT 20")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.GroupAggRPCs != 0 {
		t.Errorf("near-unique keys must not push down (GroupAggRPCs=%d)", res.Stats.GroupAggRPCs)
	}
	if res.Stats.GroupSpills == 0 {
		t.Error("planner veto must be recorded as a group spill")
	}
	if res.Rows != 20 || len(res.Data[0].Ints) != 20 {
		t.Fatalf("unexpected shape: rows=%d", res.Rows)
	}
	for i, id := range res.Data[0].Ints {
		if id != int64(i) {
			t.Fatalf("ids = %v..., want 0..19 in order", res.Data[0].Ints[:i+1])
		}
	}
	for _, n := range res.Data[1].Ints {
		if n != 1 {
			t.Fatalf("COUNT(*) per unique id = %v, want all 1", res.Data[1].Ints)
		}
	}
}

// TestGroupPushPlanCountsDistinctChunks: the planner weighs each distinct chunk
// a row group's grouping reads once — a key that is also an argument, MIN and
// MAX of one column, SUM and AVG of another — and ships each chunk that is not
// on the host once, at its own range of the request's Data, which every
// reference to it names.
func TestGroupPushPlanCountsDistinctChunks(t *testing.T) {
	data, _, _ := makeObject(t, 5, 4000, 95)
	s, _ := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	meta, err := s.Meta("obj")
	if err != nil {
		t.Fatal(err)
	}
	// GROUP BY flag: MIN(price), MAX(price), SUM(qty), AVG(qty), COUNT(*), MAX(flag).
	keyIdx := []int{colFlag}
	valIdx := []int{colPrice, colPrice, colQty, colQty, -1, colFlag}
	shippedAny := false
	for rg, rgm := range meta.Footer.RowGroups {
		chs := rgm.Chunks
		p, ok := planGroupPush(meta, rg, keyIdx, valIdx, rgm.NumRows)
		if want := chs[colFlag].Size + chs[colPrice].Size + chs[colQty].Size; p.fetch != want {
			t.Fatalf("row group %d: fetch weighed as %d bytes, want %d (flag, price and qty once each)", rg, p.fetch, want)
		}
		held := map[int]uint64{}
		for _, ci := range []int{colFlag, colPrice, colQty} {
			n, _, _ := chunkLocation(meta, rg, ci, chs[ci])
			held[n] += chs[ci].Size
		}
		var shipped uint64
		for i, ci := range p.ship {
			if n, _, _ := chunkLocation(meta, rg, ci, chs[ci]); n == p.node || slices.Index(p.ship, ci) != i {
				t.Fatalf("row group %d: ships %v to node %d, which holds column %d already or ships it twice", rg, p.ship, p.node, ci)
			}
			shipped += chs[ci].Size
		}
		for n, b := range held {
			if b > held[p.node] {
				t.Fatalf("row group %d: host node %d holds %d bytes, node %d holds %d", rg, p.node, held[p.node], n, b)
			}
		}
		if want := estGroups(meta, rg, keyIdx, rgm.NumRows)*groupPartialBytes(1, len(valIdx)) + 2*shipped; p.push != want || ok != (want < p.fetch) {
			t.Fatalf("row group %d: push weighed as %d bytes (ok %v), want %d against %d", rg, p.push, ok, want, p.fetch)
		}
		shippedAny = shippedAny || len(p.ship) > 0

		keys, vals := groupRefs(meta, rg, keyIdx, valIdx, p.ship)
		if vals[0] != vals[1] || vals[2] != vals[3] || vals[5] != keys[0] || vals[4] != (rpc.ChunkRef{}) {
			t.Fatalf("row group %d: references to one chunk differ, or COUNT's is not the zero ref: %+v %+v", rg, keys, vals)
		}
		var off uint64
		for _, ci := range p.ship {
			for _, ref := range append(keys, vals...) {
				if ref.Meta.Offset == chs[ci].Offset && (ref.BlockID != "" || ref.Offset != off) {
					t.Fatalf("row group %d: shipped column %d referenced as %+v, want Data offset %d", rg, ci, ref, off)
				}
			}
			off += chs[ci].Size
		}
	}
	if !shippedAny {
		t.Fatal("no row group ships a chunk: the object tests nothing")
	}
}
