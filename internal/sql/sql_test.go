package sql

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/lpq"
)

func mustParse(t *testing.T, q string) *Query {
	t.Helper()
	parsed, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return parsed
}

func TestParseBasic(t *testing.T) {
	q := mustParse(t, "SELECT salary FROM Employees WHERE name = 'Bob'")
	if q.Table != "Employees" {
		t.Fatalf("table = %q", q.Table)
	}
	if len(q.Projections) != 1 || q.Projections[0].Column != "salary" {
		t.Fatalf("projections = %v", q.Projections)
	}
	cmp, ok := q.Where.(*Compare)
	if !ok || cmp.Column != "name" || cmp.Op != OpEq || cmp.Value.S != "Bob" {
		t.Fatalf("where = %v", q.Where)
	}
}

func TestParseDoubleEquals(t *testing.T) {
	// The paper's running example uses ==.
	q := mustParse(t, "SELECT salary FROM Employees WHERE name == 'Bob'")
	cmp := q.Where.(*Compare)
	if cmp.Op != OpEq {
		t.Fatal("== must parse as equality")
	}
}

func TestParseOperators(t *testing.T) {
	ops := map[string]CmpOp{
		"=": OpEq, "==": OpEq, "!=": OpNe, "<>": OpNe,
		"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
	}
	for text, want := range ops {
		q := mustParse(t, "SELECT a FROM t WHERE a "+text+" 5")
		if got := q.Where.(*Compare).Op; got != want {
			t.Errorf("op %q parsed as %v, want %v", text, got, want)
		}
	}
}

func TestParseLiterals(t *testing.T) {
	q := mustParse(t, "SELECT a FROM t WHERE a < -12")
	if lit := q.Where.(*Compare).Value; lit.Kind != LitInt || lit.I != -12 {
		t.Fatalf("literal = %+v", lit)
	}
	q = mustParse(t, "SELECT a FROM t WHERE a < 3.25")
	if lit := q.Where.(*Compare).Value; lit.Kind != LitFloat || lit.F != 3.25 {
		t.Fatalf("literal = %+v", lit)
	}
	q = mustParse(t, "SELECT a FROM t WHERE a < 1e3")
	if lit := q.Where.(*Compare).Value; lit.Kind != LitFloat || lit.F != 1000 {
		t.Fatalf("literal = %+v", lit)
	}
	q = mustParse(t, "SELECT a FROM t WHERE a = 'it''s'")
	if lit := q.Where.(*Compare).Value; lit.S != "it's" {
		t.Fatalf("escaped quote wrong: %q", lit.S)
	}
}

func TestParsePrecedence(t *testing.T) {
	// AND binds tighter than OR.
	q := mustParse(t, "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or, ok := q.Where.(*Binary)
	if !ok || or.Op != OpOr {
		t.Fatalf("root must be OR, got %v", q.Where)
	}
	and, ok := or.R.(*Binary)
	if !ok || and.Op != OpAnd {
		t.Fatalf("right side must be AND, got %v", or.R)
	}
	// Parentheses override.
	q = mustParse(t, "SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3")
	root := q.Where.(*Binary)
	if root.Op != OpAnd {
		t.Fatal("parenthesized OR must nest under AND")
	}
}

func TestParseNot(t *testing.T) {
	q := mustParse(t, "SELECT a FROM t WHERE NOT a = 1 AND b = 2")
	and := q.Where.(*Binary)
	if _, ok := and.L.(*Not); !ok {
		t.Fatal("NOT must bind tighter than AND")
	}
}

func TestParseAggregates(t *testing.T) {
	q := mustParse(t, "SELECT count(*), AVG(fare), sum(tip), min(a), max(b) FROM taxi")
	wants := []struct {
		agg  AggKind
		col  string
		star bool
	}{{AggCount, "", true}, {AggAvg, "fare", false}, {AggSum, "tip", false}, {AggMin, "a", false}, {AggMax, "b", false}}
	if len(q.Projections) != len(wants) {
		t.Fatalf("got %d projections", len(q.Projections))
	}
	for i, w := range wants {
		p := q.Projections[i]
		if p.Agg != w.agg || p.Column != w.col || p.Star != w.star {
			t.Errorf("projection %d = %+v, want %+v", i, p, w)
		}
	}
	if !q.HasAggregates() {
		t.Fatal("HasAggregates must be true")
	}
}

func TestParseStar(t *testing.T) {
	q := mustParse(t, "SELECT * FROM t")
	if !q.Star || q.Where != nil {
		t.Fatalf("star parse wrong: %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE a",
		"SELECT a FROM t WHERE a <",
		"SELECT a FROM t WHERE a < 'x",
		"SELECT a FROM t WHERE (a < 1",
		"SELECT a FROM t WHERE a ! 1",
		"SELECT a FROM t extra",
		"SELECT sum(*) FROM t",
		"SELECT sum( FROM t",
		"INSERT INTO t VALUES (1)",
		"SELECT a FROM t WHERE a < 5 $",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) must fail", q)
		}
	}
}

func TestParsePrintFixpoint(t *testing.T) {
	queries := []string{
		"SELECT salary FROM Employees WHERE name = 'Bob'",
		"SELECT a, b, COUNT(*) FROM t WHERE (a = 1 OR b = 2) AND (NOT c >= 3.5)",
		"SELECT * FROM t",
		"SELECT AVG(fare) FROM taxi WHERE date < '2015-02-01'",
	}
	for _, qs := range queries {
		q1 := mustParse(t, qs)
		q2 := mustParse(t, q1.String())
		if q1.String() != q2.String() {
			t.Errorf("parse→print→parse not a fixpoint:\n  %s\n  %s", q1, q2)
		}
	}
}

func TestColumnsHelpers(t *testing.T) {
	q := mustParse(t, "SELECT a, b, a, SUM(c) FROM t WHERE d < 5 AND a = 1 AND d > 2")
	if got := q.FilterColumns(); !strsEq(got, []string{"d", "a"}) {
		t.Fatalf("FilterColumns = %v", got)
	}
	if got := q.ProjectionColumns(); !strsEq(got, []string{"a", "b", "c"}) {
		t.Fatalf("ProjectionColumns = %v", got)
	}
}

func strsEq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEvalCompareInt(t *testing.T) {
	col := lpq.IntColumn([]int64{1, 5, 10, 5, -3})
	b, err := EvalCompare(&Compare{Column: "x", Op: OpLt, Value: IntLit(5)}, col)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Indexes(); !intsEq(got, []int{0, 4}) {
		t.Fatalf("x < 5 selected %v", got)
	}
	b, _ = EvalCompare(&Compare{Column: "x", Op: OpEq, Value: FloatLit(5)}, col)
	if b.Count() != 2 {
		t.Fatal("float literal against int column must coerce")
	}
	if _, err := EvalCompare(&Compare{Column: "x", Op: OpEq, Value: StringLit("a")}, col); err == nil {
		t.Fatal("string literal against int column must fail")
	}
}

func TestEvalCompareString(t *testing.T) {
	col := lpq.StringColumn([]string{"alice", "bob", "carol"})
	b, err := EvalCompare(&Compare{Column: "n", Op: OpGe, Value: StringLit("bob")}, col)
	if err != nil {
		t.Fatal(err)
	}
	if b.Count() != 2 {
		t.Fatalf("n >= 'bob' selected %d", b.Count())
	}
	if _, err := EvalCompare(&Compare{Column: "n", Op: OpEq, Value: IntLit(1)}, col); err == nil {
		t.Fatal("int literal against string column must fail")
	}
}

func intsEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEvalExprAgainstBruteForce is the central evaluator property: for random
// predicate trees and random data, EvalExpr over per-compare bitmaps must
// agree with direct row-at-a-time evaluation.
func TestEvalExprAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 500
	ints := make([]int64, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	for i := 0; i < n; i++ {
		ints[i] = int64(rng.Intn(20))
		floats[i] = float64(rng.Intn(100)) / 4
		strs[i] = string(rune('a' + rng.Intn(5)))
	}
	cols := map[string]lpq.ColumnData{
		"i": lpq.IntColumn(ints),
		"f": lpq.FloatColumn(floats),
		"s": lpq.StringColumn(strs),
	}
	var genExpr func(depth int) Expr
	genExpr = func(depth int) Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			switch rng.Intn(3) {
			case 0:
				return &Compare{Column: "i", Op: CmpOp(rng.Intn(6)), Value: IntLit(int64(rng.Intn(20)))}
			case 1:
				return &Compare{Column: "f", Op: CmpOp(rng.Intn(6)), Value: FloatLit(float64(rng.Intn(100)) / 4)}
			default:
				return &Compare{Column: "s", Op: CmpOp(rng.Intn(6)), Value: StringLit(string(rune('a' + rng.Intn(5))))}
			}
		}
		if rng.Intn(4) == 0 {
			return &Not{E: genExpr(depth - 1)}
		}
		return &Binary{Op: LogicalOp(rng.Intn(2)), L: genExpr(depth - 1), R: genExpr(depth - 1)}
	}
	var evalRow func(e Expr, i int) bool
	evalRow = func(e Expr, i int) bool {
		switch node := e.(type) {
		case *Compare:
			col := cols[node.Column]
			switch col.Type {
			case lpq.Int64:
				if node.Value.Kind == LitInt {
					return cmpInt(col.Ints[i], node.Value.I, node.Op)
				}
				return cmpFloat(float64(col.Ints[i]), node.Value.AsFloat(), node.Op)
			case lpq.Float64:
				return cmpFloat(col.Floats[i], node.Value.AsFloat(), node.Op)
			default:
				return cmpString(col.Strings[i], node.Value.S, node.Op)
			}
		case *Binary:
			if node.Op == OpAnd {
				return evalRow(node.L, i) && evalRow(node.R, i)
			}
			return evalRow(node.L, i) || evalRow(node.R, i)
		case *Not:
			return !evalRow(node.E, i)
		}
		return false
	}
	for trial := 0; trial < 100; trial++ {
		e := genExpr(3)
		got, err := EvalExpr(e, n, func(c *Compare) (*bitmap.Bitmap, error) {
			return EvalCompare(c, cols[c.Column])
		})
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, e, err)
		}
		for i := 0; i < n; i++ {
			if got.Get(i) != evalRow(e, i) {
				t.Fatalf("trial %d (%s): row %d mismatch", trial, e, i)
			}
		}
	}
}

func TestCheckStatsInt(t *testing.T) {
	st := lpq.Stats{Valid: true, MinI: 10, MaxI: 20}
	cases := []struct {
		op   CmpOp
		lit  int64
		want StatsVerdict
	}{
		{OpLt, 5, StatsNone},
		{OpLt, 10, StatsNone},
		{OpLt, 25, StatsAll},
		{OpLt, 15, StatsUnknown},
		{OpEq, 30, StatsNone},
		{OpEq, 15, StatsUnknown},
		{OpGe, 10, StatsAll},
		{OpGt, 20, StatsNone},
		{OpNe, 30, StatsAll},
		{OpLe, 20, StatsAll},
	}
	for _, c := range cases {
		got := CheckStats(&Compare{Column: "x", Op: c.op, Value: IntLit(c.lit)}, lpq.Int64, st)
		if got != c.want {
			t.Errorf("op %v lit %d: verdict %v, want %v", c.op, c.lit, got, c.want)
		}
	}
	if CheckStats(&Compare{Op: OpEq, Value: IntLit(1)}, lpq.Int64, lpq.Stats{}) != StatsUnknown {
		t.Fatal("invalid stats must be unknown")
	}
	if CheckStats(&Compare{Op: OpEq, Value: StringLit("x")}, lpq.Int64, st) != StatsUnknown {
		t.Fatal("type-mismatched stats check must be unknown")
	}
}

func TestCheckStatsString(t *testing.T) {
	st := lpq.Stats{Valid: true, MinS: "f", MaxS: "m"}
	if CheckStats(&Compare{Op: OpEq, Value: StringLit("z")}, lpq.String, st) != StatsNone {
		t.Fatal("z outside [f,m] must prune")
	}
	if CheckStats(&Compare{Op: OpLt, Value: StringLit("z")}, lpq.String, st) != StatsAll {
		t.Fatal("all < z must be StatsAll")
	}
}

// Property: CheckStats verdicts are always consistent with row evaluation.
func TestCheckStatsSoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(50))
		}
		min, max := vals[0], vals[0]
		for _, v := range vals {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		st := lpq.Stats{Valid: true, MinI: min, MaxI: max}
		cmp := &Compare{Column: "x", Op: CmpOp(rng.Intn(6)), Value: IntLit(int64(rng.Intn(60) - 5))}
		b, err := EvalCompare(cmp, lpq.IntColumn(vals))
		if err != nil {
			return false
		}
		switch CheckStats(cmp, lpq.Int64, st) {
		case StatsNone:
			return b.Count() == 0
		case StatsAll:
			return b.Count() == n
		default:
			return true
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAggState(t *testing.T) {
	col := lpq.FloatColumn([]float64{2, 4})
	sum := NewAggState(AggSum)
	sum.AddColumn(col)
	if sum.Result().F != 6 {
		t.Fatalf("SUM = %v", sum.Result())
	}
	avg := NewAggState(AggAvg)
	avg.AddColumn(col)
	if avg.Result().F != 3 {
		t.Fatalf("AVG = %v", avg.Result())
	}
	cnt := NewAggState(AggCount)
	cnt.AddCount(col.Len())
	if cnt.Result().I != 2 {
		t.Fatalf("COUNT = %v", cnt.Result())
	}
	mn := NewAggState(AggMin)
	mn.AddColumn(col)
	if mn.Result().F != 2 {
		t.Fatalf("MIN = %v", mn.Result())
	}
	mx := NewAggState(AggMax)
	mx.AddColumn(col)
	if mx.Result().F != 4 {
		t.Fatalf("MAX = %v", mx.Result())
	}
	// AVG of nothing is 0, not NaN.
	if NewAggState(AggAvg).Result().F != 0 {
		t.Fatal("empty AVG must be 0")
	}
	// String min/max.
	sCol := lpq.StringColumn([]string{"pear", "apple", "fig"})
	sMin := NewAggState(AggMin)
	sMin.AddColumn(sCol)
	if sMin.Result().S != "apple" {
		t.Fatalf("string MIN = %v", sMin.Result())
	}
}

func TestAggStateAcrossChunks(t *testing.T) {
	// Aggregation accumulates across chunk boundaries, matching a single
	// pass over the concatenated column.
	a := NewAggState(AggSum)
	a.AddColumn(lpq.IntColumn([]int64{1, 2}))
	a.AddColumn(lpq.IntColumn([]int64{3, 4}))
	if a.Result().F != 10 {
		t.Fatalf("cross-chunk SUM = %v", a.Result())
	}
}

func TestLiteralString(t *testing.T) {
	if IntLit(5).String() != "5" || FloatLit(2.5).String() != "2.5" {
		t.Fatal("numeric literal printing wrong")
	}
	if StringLit("a'b").String() != "'a''b'" {
		t.Fatal("string literal must escape quotes")
	}
	if !strings.Contains((&ParseError{Pos: 3, Msg: "x"}).Error(), "position 3") {
		t.Fatal("ParseError must include position")
	}
}
