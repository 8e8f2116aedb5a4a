package sql

import (
	"reflect"
	"testing"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/lpq"
)

func TestParseGroupBy(t *testing.T) {
	q := mustParse(t, "SELECT dept, COUNT(*), AVG(salary) FROM emp GROUP BY dept")
	if !reflect.DeepEqual(q.GroupBy, []string{"dept"}) {
		t.Fatalf("GroupBy = %v", q.GroupBy)
	}
	if q.String() != "SELECT dept, COUNT(*), AVG(salary) FROM emp GROUP BY dept" {
		t.Fatalf("String() = %q", q.String())
	}
	// Multiple keys, WHERE in between.
	q = mustParse(t, "SELECT a, b, SUM(x) FROM t WHERE x > 0 GROUP BY a, b")
	if !reflect.DeepEqual(q.GroupBy, []string{"a", "b"}) {
		t.Fatalf("GroupBy = %v", q.GroupBy)
	}
}

func TestParseGroupByAlias(t *testing.T) {
	// GROUP BY on a projected alias resolves to the underlying column.
	q := mustParse(t, "SELECT dept AS d, SUM(salary) AS total FROM emp GROUP BY d")
	if !reflect.DeepEqual(q.GroupBy, []string{"dept"}) {
		t.Fatalf("alias GroupBy = %v", q.GroupBy)
	}
	if q.Projections[0].Alias != "d" || q.Projections[1].Alias != "total" {
		t.Fatalf("aliases = %+v", q.Projections)
	}
	if q.String() != "SELECT dept AS d, SUM(salary) AS total FROM emp GROUP BY dept" {
		t.Fatalf("String() = %q", q.String())
	}
}

func TestParseOrderBy(t *testing.T) {
	q := mustParse(t, "SELECT id, qty FROM t ORDER BY qty DESC, id LIMIT 10")
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[0].Proj.Column != "qty" {
		t.Fatalf("OrderBy = %+v", q.OrderBy)
	}
	if q.OrderBy[1].Desc || q.OrderBy[1].Proj.Column != "id" {
		t.Fatalf("OrderBy[1] = %+v", q.OrderBy[1])
	}
	if !q.HasLimit || q.Limit != 10 {
		t.Fatalf("limit = %v/%v", q.HasLimit, q.Limit)
	}
	if q.String() != "SELECT id, qty FROM t ORDER BY qty DESC, id LIMIT 10" {
		t.Fatalf("String() = %q", q.String())
	}
	// Explicit ASC parses and normalizes away.
	q = mustParse(t, "SELECT id FROM t ORDER BY id ASC")
	if q.OrderBy[0].Desc {
		t.Fatal("ASC must not set Desc")
	}
}

func TestParseOrderByAggregate(t *testing.T) {
	// ORDER BY on an aggregate expression.
	q := mustParse(t, "SELECT dept, SUM(salary) FROM emp GROUP BY dept ORDER BY SUM(salary) DESC LIMIT 3")
	o := q.OrderBy[0]
	if o.Proj.Agg != AggSum || o.Proj.Column != "salary" || !o.Desc {
		t.Fatalf("agg order item = %+v", o)
	}
	// ORDER BY on an aggregate alias.
	q = mustParse(t, "SELECT dept, SUM(salary) AS total FROM emp GROUP BY dept ORDER BY total DESC")
	o = q.OrderBy[0]
	if o.Proj.Agg != AggSum || o.Proj.Column != "salary" || !o.Desc {
		t.Fatalf("alias agg order item = %+v", o)
	}
	// ORDER BY COUNT(*).
	q = mustParse(t, "SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY COUNT(*)")
	if o := q.OrderBy[0]; o.Proj.Agg != AggCount || !o.Proj.Star {
		t.Fatalf("count(*) order item = %+v", o)
	}
}

func TestParseLimitZero(t *testing.T) {
	// LIMIT 0 is a real limit: zero rows, not "no limit".
	q := mustParse(t, "SELECT a FROM t LIMIT 0")
	if !q.HasLimit || q.Limit != 0 {
		t.Fatalf("LIMIT 0: HasLimit=%v Limit=%d", q.HasLimit, q.Limit)
	}
	if q.String() != "SELECT a FROM t LIMIT 0" {
		t.Fatalf("String() = %q", q.String())
	}
	q = mustParse(t, "SELECT a FROM t")
	if q.HasLimit {
		t.Fatal("no LIMIT clause must leave HasLimit false")
	}
}

func TestParseGroupByErrors(t *testing.T) {
	for _, bad := range []string{
		"SELECT * FROM t GROUP BY a",                       // star with grouping
		"SELECT a, b FROM t GROUP BY a",                    // b not grouped
		"SELECT a, SUM(x) AS s FROM t GROUP BY a, s",       // grouping an aggregate alias
		"SELECT a FROM t GROUP BY",                         // missing column
		"SELECT a FROM t GROUP a",                          // missing BY
		"SELECT a FROM t GROUP BY SUM(a)",                  // aggregate key
		"SELECT SUM(x) FROM t ORDER BY y",                  // plain order on aggregate-only query
		"SELECT a, SUM(x) FROM t GROUP BY a ORDER BY x",    // order col not a group key
		"SELECT a FROM t ORDER BY SUM(x)",                  // aggregate order without aggregates
		"SELECT a FROM t ORDER BY",                         // missing item
		"SELECT a FROM t ORDER BY a DESC,",                 // trailing comma
		"SELECT a AS FROM FROM t",                          // reserved word as alias
		"SELECT a FROM t GROUP BY where",                   // reserved word as key
		"SELECT group FROM t",                              // reserved word as column
		"SELECT a FROM order",                              // reserved word as table
		"SELECT a, b AS a2 FROM t GROUP BY a ORDER BY SUM", // bare agg keyword
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) must fail", bad)
		}
	}
}

func TestParseGroupOrderPrintFixpoint(t *testing.T) {
	for _, src := range []string{
		"SELECT dept, COUNT(*) FROM emp GROUP BY dept",
		"SELECT dept AS d, SUM(salary) AS total FROM emp GROUP BY dept ORDER BY SUM(salary) DESC LIMIT 5",
		"SELECT a, b, MIN(x) FROM t WHERE x > 1 GROUP BY a, b ORDER BY a, b DESC LIMIT 0",
		"SELECT id FROM t ORDER BY price DESC LIMIT 7",
	} {
		q := mustParse(t, src)
		q2 := mustParse(t, q.String())
		if q.String() != q2.String() {
			t.Fatalf("print fixpoint broken: %q -> %q", q.String(), q2.String())
		}
	}
}

func TestGroupTableBasic(t *testing.T) {
	keys := []lpq.ColumnData{lpq.StringColumn([]string{"a", "b", "a", "b", "a"})}
	vals := []lpq.ColumnData{
		lpq.IntColumn([]int64{1, 2, 3, 4, 5}),
		{}, // COUNT(*)
	}
	sel := bitmap.New(5)
	for i := 0; i < 5; i++ {
		sel.Set(i)
	}
	g := NewGroupTable([]AggKind{AggSum, AggCount}, 0)
	if err := g.AddRows(keys, vals, sel); err != nil {
		t.Fatal(err)
	}
	got := g.Sorted()
	if len(got) != 2 {
		t.Fatalf("groups = %d", len(got))
	}
	if got[0].Key[0].S != "a" || got[0].Aggs[0].Sum != 9 || got[0].Aggs[1].Count != 3 {
		t.Fatalf("group a = %+v", got[0])
	}
	if got[1].Key[0].S != "b" || got[1].Aggs[0].Sum != 6 || got[1].Aggs[1].Count != 2 {
		t.Fatalf("group b = %+v", got[1])
	}
}

func TestGroupTableMergeMatchesSinglePass(t *testing.T) {
	// Split the rows across two tables, merge, and compare against one
	// table that saw everything — states must be identical, not just
	// close: AVG merges as (sum, count).
	keyCol := []int64{1, 2, 1, 3, 2, 1, 3, 3}
	valCol := []float64{0.5, 1.5, 2.25, -1, 4, 8, 0.125, 3}
	kinds := []AggKind{AggAvg, AggMin, AggCount}
	build := func(lo, hi int) *GroupTable {
		g := NewGroupTable(kinds, 0)
		sel := bitmap.New(hi - lo)
		for i := range hi - lo {
			sel.Set(i)
		}
		err := g.AddRows(
			[]lpq.ColumnData{lpq.IntColumn(keyCol[lo:hi])},
			[]lpq.ColumnData{lpq.FloatColumn(valCol[lo:hi]), lpq.FloatColumn(valCol[lo:hi]), {}},
			sel)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	single := build(0, len(keyCol))
	left, right := build(0, 5), build(5, len(keyCol))
	merged := NewGroupTable(kinds, 0)
	if err := merged.Merge(left.Sorted()); err != nil {
		t.Fatal(err)
	}
	if err := merged.Merge(right.Sorted()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single.Sorted(), merged.Sorted()) {
		t.Fatalf("merged != single-pass:\n%+v\n%+v", merged.Sorted(), single.Sorted())
	}
}

func TestGroupTableCardinalityCap(t *testing.T) {
	g := NewGroupTable([]AggKind{AggCount}, 3)
	keys := []lpq.ColumnData{lpq.IntColumn([]int64{1, 2, 3, 4})}
	sel := bitmap.New(4)
	for i := 0; i < 4; i++ {
		sel.Set(i)
	}
	err := g.AddRows(keys, []lpq.ColumnData{{}}, sel)
	if err != ErrTooManyGroups {
		t.Fatalf("err = %v, want ErrTooManyGroups", err)
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	// Equal keys resolve by (rg, row) no matter the push order.
	a := NewTopK(3, false)
	b := NewTopK(3, false)
	rows := []TopRow{
		{Key: IntLit(5), RG: 1, Row: 0},
		{Key: IntLit(5), RG: 0, Row: 2},
		{Key: IntLit(5), RG: 0, Row: 1},
		{Key: IntLit(4), RG: 2, Row: 7},
		{Key: IntLit(9), RG: 0, Row: 0},
	}
	for _, r := range rows {
		a.Push(r.Key, r.RG, r.Row)
	}
	for i := len(rows) - 1; i >= 0; i-- {
		b.Push(rows[i].Key, rows[i].RG, rows[i].Row)
	}
	ra, rb := a.Rows(), b.Rows()
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("order-dependent top-k: %v vs %v", ra, rb)
	}
	want := []TopRow{
		{Key: IntLit(4), RG: 2, Row: 7},
		{Key: IntLit(5), RG: 0, Row: 1},
		{Key: IntLit(5), RG: 0, Row: 2},
	}
	if !reflect.DeepEqual(ra, want) {
		t.Fatalf("top-k = %v, want %v", ra, want)
	}
}

func TestTopKDescAndMerge(t *testing.T) {
	whole := NewTopK(2, true)
	parts := []*TopK{NewTopK(2, true), NewTopK(2, true)}
	vals := []float64{1.5, 9, -2, 7, 3, 9}
	for i, v := range vals {
		whole.Push(FloatLit(v), int32(i/3), int32(i%3))
		parts[i/3].Push(FloatLit(v), int32(i/3), int32(i%3))
	}
	merged := NewTopK(2, true)
	for _, p := range parts {
		merged.Merge(p.Rows())
	}
	if !reflect.DeepEqual(whole.Rows(), merged.Rows()) {
		t.Fatalf("merged desc top-k differs: %v vs %v", merged.Rows(), whole.Rows())
	}
	want := []TopRow{
		{Key: FloatLit(9), RG: 0, Row: 1},
		{Key: FloatLit(9), RG: 1, Row: 2},
	}
	if !reflect.DeepEqual(whole.Rows(), want) {
		t.Fatalf("desc top-k = %v, want %v", whole.Rows(), want)
	}
}

func TestTopKUnbounded(t *testing.T) {
	tk := NewTopK(0, false)
	for i := int32(4); i >= 0; i-- {
		tk.Push(IntLit(int64(i)), 0, i)
	}
	rows := tk.Rows()
	if len(rows) != 5 || rows[0].Key.I != 0 || rows[4].Key.I != 4 {
		t.Fatalf("unbounded topk = %v", rows)
	}
}

// FuzzParse asserts the lexer/parser never panic and that any successfully
// parsed query re-parses to the same rendering (print fixpoint).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT a FROM t",
		"SELECT * FROM t WHERE a > 1 AND b < 'x' LIMIT 3",
		"SELECT dept, COUNT(*), AVG(salary) FROM emp WHERE x BETWEEN 1 AND 2 GROUP BY dept",
		"SELECT dept AS d, SUM(s) AS total FROM emp GROUP BY d ORDER BY total DESC LIMIT 5",
		"SELECT id FROM t ORDER BY price DESC, id ASC LIMIT 0",
		"SELECT a FROM t WHERE a IN (1, 2.5, 'x') ORDER BY a",
		"SELECT COUNT(*) FROM t ORDER BY COUNT(*)",
		"GROUP BY ORDER AS DESC SELECT",
		"SELECT a AS b FROM t GROUP BY b ORDER BY b",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("rendering %q of %q does not re-parse: %v", q.String(), src, err)
		}
		if q.String() != q2.String() {
			t.Fatalf("print fixpoint broken: %q -> %q", q.String(), q2.String())
		}
	})
}
