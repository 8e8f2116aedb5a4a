package store

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/fusionstore/fusion/internal/lpq"
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
	s := fmt.Sprintf("rows=%d cols=%v aggs=%v\n", res.Rows, res.Columns, res.AggLabels)
	for i, col := range res.Data {
		s += fmt.Sprintf("col %d type=%v ", i, col.Type)
		switch col.Type {
		case lpq.Int64:
			s += fmt.Sprintf("%v", col.Ints)
		case lpq.Float64:
			for _, f := range col.Floats {
				s += fmt.Sprintf(" %016x", math.Float64bits(f))
			}
		default:
			s += fmt.Sprintf("%q", col.Strings)
		}
		s += "\n"
	}
	for i, v := range res.AggValues {
		s += fmt.Sprintf("agg %d kind=%d i=%d f=%016x s=%q\n", i, v.Kind, v.I, math.Float64bits(v.F), v.S)
	}
	return s
}

var groupEquivQueries = []string{
	"SELECT flag, COUNT(*), SUM(price), AVG(price), MIN(qty), MAX(qty) FROM obj WHERE qty < 40 GROUP BY flag",
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
}

// TestGroupOrderEquivalenceMatrix runs every query under three
// configurations — pushdown, cached pushdown (second run against a warm
// cache), and the fixed-block baseline with coordinator-side execution —
// and requires bit-identical results.
func TestGroupOrderEquivalenceMatrix(t *testing.T) {
	// Row groups must be big enough that partial states undercut compressed
	// chunks, or the cost model (correctly) refuses to push anything.
	data, _, _ := makeObject(t, 3, 6000, 95)

	type config struct {
		name string
		opts Options
		warm bool // query twice, keep the cache-served run
	}
	cached := fusionTestOptions()
	cached.CacheBytes = 64 << 20
	configs := []config{
		{name: "pushdown", opts: fusionTestOptions()},
		{name: "pushdown-cached", opts: cached, warm: true},
		{name: "baseline", opts: BaselineOptions()},
	}

	results := make(map[string]map[string]*Result) // config -> query -> result
	for _, cfg := range configs {
		s, _ := newSimStore(t, cfg.opts)
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
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
	}

	ref := results["baseline"]
	for _, cfg := range configs[:2] {
		for _, q := range groupEquivQueries {
			got, want := resultKey(results[cfg.name][q]), resultKey(ref[q])
			if got != want {
				t.Errorf("%s diverges from baseline on %q:\n--- got ---\n%s--- want ---\n%s", cfg.name, q, got, want)
			}
		}
	}

	// The pushed configuration must actually push: grouped row groups as
	// partial-state RPCs, top-k row groups as TopK RPCs.
	var groupRPCs, topkRPCs, partials int
	for _, res := range results["pushdown"] {
		groupRPCs += res.Stats.GroupAggRPCs
		topkRPCs += res.Stats.TopKRPCs
		partials += res.Stats.PartialGroups
	}
	if groupRPCs == 0 || partials == 0 {
		t.Errorf("pushdown never issued GroupAgg RPCs (rpcs=%d partials=%d)", groupRPCs, partials)
	}
	if topkRPCs == 0 {
		t.Error("pushdown never issued TopK RPCs")
	}
}

// TestGroupOrderDegradedEquivalence: with a storage node down, grouped and
// top-k queries spill to coordinator-side execution over reconstructed
// chunks and still return bit-identical results.
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
		{"aggregate-pushdown", func(o *Options) { o.QueryWorkers = 8; o.AggregatePushdown = true }},
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
