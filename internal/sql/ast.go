package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// AggKind enumerates the aggregate functions (aggregate pushdown is the
// paper's stated future work; here every aggregate folds through a
// GroupTable, an ungrouped one being a grouping with no key).
type AggKind int

const (
	// AggNone means a plain column projection.
	AggNone AggKind = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (a AggKind) String() string {
	switch a {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return ""
	}
}

// Projection is one SELECT-list item: a column, an aggregate over a column,
// or COUNT(*), optionally with an AS alias.
type Projection struct {
	Column string // empty for COUNT(*)
	Agg    AggKind
	Star   bool   // COUNT(*)
	Alias  string // optional AS name
}

func (p Projection) String() string {
	s := p.exprString()
	if p.Alias != "" {
		s += " AS " + p.Alias
	}
	return s
}

// exprString renders the projection without its alias.
func (p Projection) exprString() string {
	if p.Agg == AggNone {
		return p.Column
	}
	arg := p.Column
	if p.Star {
		arg = "*"
	}
	return fmt.Sprintf("%s(%s)", p.Agg, arg)
}

// CmpOp enumerates comparison operators.
type CmpOp int

const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (o CmpOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	default:
		return ">="
	}
}

// LitKind is the type of a literal.
type LitKind int

const (
	LitInt LitKind = iota
	LitFloat
	LitString
)

// Literal is a typed constant in a predicate.
type Literal struct {
	Kind LitKind
	I    int64
	F    float64
	S    string
}

func (l Literal) String() string {
	switch l.Kind {
	case LitInt:
		return strconv.FormatInt(l.I, 10)
	case LitFloat:
		return strconv.FormatFloat(l.F, 'g', -1, 64)
	default:
		return "'" + strings.ReplaceAll(l.S, "'", "''") + "'"
	}
}

// AsFloat returns the numeric value of an int or float literal.
func (l Literal) AsFloat() float64 {
	if l.Kind == LitInt {
		return float64(l.I)
	}
	return l.F
}

// IntLit, FloatLit and StringLit are Literal constructors.
func IntLit(v int64) Literal     { return Literal{Kind: LitInt, I: v} }
func FloatLit(v float64) Literal { return Literal{Kind: LitFloat, F: v} }
func StringLit(s string) Literal { return Literal{Kind: LitString, S: s} }

// CompareLiterals imposes a total order on literals: numerics compare
// numerically (int-vs-int exactly, mixed in float space), strings compare
// lexically, and any string sorts after any numeric. NaN sorts before every
// other numeric and equal to itself, keeping sorts deterministic.
func CompareLiterals(a, b Literal) int {
	if (a.Kind == LitString) != (b.Kind == LitString) {
		if a.Kind == LitString {
			return 1
		}
		return -1
	}
	if a.Kind == LitString {
		return strings.Compare(a.S, b.S)
	}
	if a.Kind == LitInt && b.Kind == LitInt {
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	}
	af, bf := a.AsFloat(), b.AsFloat()
	aNaN, bNaN := af != af, bf != bf
	switch {
	case aNaN && bNaN:
		return 0
	case aNaN:
		return -1
	case bNaN:
		return 1
	case af < bf:
		return -1
	case af > bf:
		return 1
	}
	return 0
}

// Expr is a boolean predicate expression.
type Expr interface {
	fmt.Stringer
	// Columns appends the column names the expression references.
	Columns(dst []string) []string
}

// Compare is a column-vs-literal comparison, the predicate leaf.
type Compare struct {
	Column string
	Op     CmpOp
	Value  Literal
}

func (c *Compare) String() string {
	return fmt.Sprintf("%s %s %s", c.Column, c.Op, c.Value)
}

// Columns implements Expr.
func (c *Compare) Columns(dst []string) []string { return append(dst, c.Column) }

// LogicalOp combines predicates.
type LogicalOp int

const (
	OpAnd LogicalOp = iota
	OpOr
)

func (o LogicalOp) String() string {
	if o == OpAnd {
		return "AND"
	}
	return "OR"
}

// Binary is an AND/OR of two predicates.
type Binary struct {
	Op   LogicalOp
	L, R Expr
}

func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Columns implements Expr.
func (b *Binary) Columns(dst []string) []string {
	return b.R.Columns(b.L.Columns(dst))
}

// Not negates a predicate.
type Not struct{ E Expr }

func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.E) }

// Columns implements Expr.
func (n *Not) Columns(dst []string) []string { return n.E.Columns(dst) }

// OrderItem is one ORDER BY term: a plain column or an aggregate, with a
// direction.
type OrderItem struct {
	Proj Projection // Alias unused; identifies the sort expression
	Desc bool
}

func (o OrderItem) String() string {
	s := o.Proj.exprString()
	if o.Desc {
		s += " DESC"
	}
	return s
}

// Query is a parsed SELECT statement.
type Query struct {
	Projections []Projection
	// Star is SELECT *.
	Star  bool
	Table string
	Where Expr // nil when there is no WHERE clause
	// GroupBy lists grouping columns (aliases already resolved to column
	// names by the parser); empty means no GROUP BY.
	GroupBy []string
	// OrderBy lists sort terms; empty means no ORDER BY.
	OrderBy []OrderItem
	// Limit caps the number of returned rows when HasLimit is set.
	// LIMIT 0 is a valid query that returns no rows.
	Limit int
	// HasLimit reports whether a LIMIT clause was present.
	HasLimit bool
}

func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if q.Star {
		sb.WriteString("*")
	} else {
		for i, p := range q.Projections {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(p.String())
		}
	}
	sb.WriteString(" FROM ")
	sb.WriteString(q.Table)
	if q.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(q.Where.String())
	}
	if len(q.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		sb.WriteString(strings.Join(q.GroupBy, ", "))
	}
	if len(q.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range q.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.String())
		}
	}
	if q.HasLimit {
		fmt.Fprintf(&sb, " LIMIT %d", q.Limit)
	}
	return sb.String()
}

// FilterColumns returns the distinct columns referenced by the WHERE clause,
// in first-reference order.
func (q *Query) FilterColumns() []string {
	if q.Where == nil {
		return nil
	}
	return dedup(q.Where.Columns(nil))
}

// ProjectionColumns returns the distinct columns needed by the SELECT list
// (excluding COUNT(*)), in first-reference order.
func (q *Query) ProjectionColumns() []string {
	var cols []string
	for _, p := range q.Projections {
		if !p.Star && p.Column != "" {
			cols = append(cols, p.Column)
		}
	}
	return dedup(cols)
}

// OrderColumns returns the distinct plain (non-aggregate) columns referenced
// by ORDER BY, in first-reference order.
func (q *Query) OrderColumns() []string {
	var cols []string
	for _, o := range q.OrderBy {
		if o.Proj.Agg == AggNone && o.Proj.Column != "" {
			cols = append(cols, o.Proj.Column)
		}
	}
	return dedup(cols)
}

// GroupKeyIndex returns the position of col in GroupBy, or -1.
func (q *Query) GroupKeyIndex(col string) int {
	for i, g := range q.GroupBy {
		if g == col {
			return i
		}
	}
	return -1
}

// HasAggregates reports whether any SELECT item is an aggregate.
func (q *Query) HasAggregates() bool {
	for _, p := range q.Projections {
		if p.Agg != AggNone {
			return true
		}
	}
	return false
}

func dedup(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
