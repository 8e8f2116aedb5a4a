package sql

import (
	"fmt"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/lpq"
)

// ErrType reports a predicate whose literal type is incompatible with the
// column type.
type ErrType struct {
	Column string
	Col    lpq.Type
	Lit    LitKind
}

func (e *ErrType) Error() string {
	return fmt.Sprintf("sql: column %s has type %v, incompatible literal kind %d", e.Column, e.Col, e.Lit)
}

// CheckType reports an ErrType when c's literal cannot be compared with a
// column of type t: a string column takes a string literal, an int column an
// int or a float, a float column anything but a string. This is the type rule
// of every comparison kernel.
func CheckType(c *Compare, t lpq.Type) error {
	k := c.Value.Kind
	ok := k != LitString
	switch t {
	case lpq.String:
		ok = k == LitString
	case lpq.Int64:
		ok = k == LitInt || k == LitFloat
	}
	if !ok {
		return &ErrType{Column: c.Column, Col: t, Lit: k}
	}
	return nil
}

// EvalCompare evaluates a comparison over one column chunk's values and
// returns the row bitmap. This is the operation Fusion pushes down to
// storage nodes in the filter stage (there over an opened chunk, where these
// values are a dictionary or a batch of a plain page: FilterChunk).
func EvalCompare(c *Compare, col lpq.ColumnData) (*bitmap.Bitmap, error) {
	out := bitmap.New(col.Len())
	if err := compareInto(c, col, out.Words()); err != nil {
		return nil, err
	}
	return out, nil
}

// compareInto sets bit i of words for every value i of col that satisfies c;
// words are zero on entry. It is the one place a comparison's semantics live:
// an int column meets an int literal exactly and a float literal in float
// space, a float column meets either literal in float space, and strings
// compare bytewise.
func compareInto(c *Compare, col lpq.ColumnData, words []uint64) error {
	if err := CheckType(c, col.Type); err != nil {
		return err
	}
	switch col.Type {
	case lpq.Int64:
		if c.Value.Kind == LitInt {
			compareValues(col.Ints, c.Value.I, c.Op, words)
			break
		}
		lit := c.Value.F
		for i, v := range col.Ints {
			if cmpFloat(float64(v), lit, c.Op) {
				words[i>>6] |= 1 << (i & 63)
			}
		}
	case lpq.Float64:
		compareValues(col.Floats, c.Value.AsFloat(), c.Op, words)
	case lpq.String:
		compareValues(col.Strings, c.Value.S, c.Op, words)
	}
	return nil
}

// compareValues sets bit i of words for every vals[i] op lit, with Go's
// comparison semantics for T (a NaN satisfies only !=). The operator is
// chosen once, outside the loop.
func compareValues[T int64 | float64 | string](vals []T, lit T, op CmpOp, words []uint64) {
	switch op {
	case OpEq:
		for i, v := range vals {
			if v == lit {
				words[i>>6] |= 1 << (i & 63)
			}
		}
	case OpNe:
		for i, v := range vals {
			if v != lit {
				words[i>>6] |= 1 << (i & 63)
			}
		}
	case OpLt:
		for i, v := range vals {
			if v < lit {
				words[i>>6] |= 1 << (i & 63)
			}
		}
	case OpLe:
		for i, v := range vals {
			if v <= lit {
				words[i>>6] |= 1 << (i & 63)
			}
		}
	case OpGt:
		for i, v := range vals {
			if v > lit {
				words[i>>6] |= 1 << (i & 63)
			}
		}
	default:
		for i, v := range vals {
			if v >= lit {
				words[i>>6] |= 1 << (i & 63)
			}
		}
	}
}

func cmpFloat(v, lit float64, op CmpOp) bool {
	switch op {
	case OpEq:
		return v == lit
	case OpNe:
		return v != lit
	case OpLt:
		return v < lit
	case OpLe:
		return v <= lit
	case OpGt:
		return v > lit
	default:
		return v >= lit
	}
}

// StatsVerdict is the outcome of testing a predicate against chunk min/max
// statistics.
type StatsVerdict int

const (
	// StatsUnknown: some rows may match; the chunk must be read.
	StatsUnknown StatsVerdict = iota
	// StatsNone: provably no row matches; the chunk can be skipped and an
	// all-zero bitmap substituted (the paper's footer-based coarse
	// filtering, §5).
	StatsNone
	// StatsAll: provably every row matches; an all-one bitmap can be
	// substituted without reading the chunk.
	StatsAll
)

// CheckStats tests a comparison against a chunk's min/max statistics.
func CheckStats(c *Compare, t lpq.Type, st lpq.Stats) StatsVerdict {
	if !st.Valid {
		return StatsUnknown
	}
	switch t {
	case lpq.Int64:
		if c.Value.Kind == LitString {
			return StatsUnknown
		}
		// Compare in float space, exact enough for pruning decisions on
		// the ranges the datasets use.
		return rangeVerdict(float64(st.MinI), float64(st.MaxI), c.Value.AsFloat(), c.Op)
	case lpq.Float64:
		if c.Value.Kind == LitString {
			return StatsUnknown
		}
		return rangeVerdict(st.MinF, st.MaxF, c.Value.AsFloat(), c.Op)
	default:
		if c.Value.Kind != LitString {
			return StatsUnknown
		}
		return stringRangeVerdict(st.MinS, st.MaxS, c.Value.S, c.Op)
	}
}

func rangeVerdict(min, max, lit float64, op CmpOp) StatsVerdict {
	switch op {
	case OpEq:
		if lit < min || lit > max {
			return StatsNone
		}
		if min == max && min == lit {
			return StatsAll
		}
	case OpNe:
		if lit < min || lit > max {
			return StatsAll
		}
		if min == max && min == lit {
			return StatsNone
		}
	case OpLt:
		if max < lit {
			return StatsAll
		}
		if min >= lit {
			return StatsNone
		}
	case OpLe:
		if max <= lit {
			return StatsAll
		}
		if min > lit {
			return StatsNone
		}
	case OpGt:
		if min > lit {
			return StatsAll
		}
		if max <= lit {
			return StatsNone
		}
	case OpGe:
		if min >= lit {
			return StatsAll
		}
		if max < lit {
			return StatsNone
		}
	}
	return StatsUnknown
}

func stringRangeVerdict(min, max, lit string, op CmpOp) StatsVerdict {
	switch op {
	case OpEq:
		if lit < min || lit > max {
			return StatsNone
		}
	case OpNe:
		if lit < min || lit > max {
			return StatsAll
		}
	case OpLt:
		if max < lit {
			return StatsAll
		}
		if min >= lit {
			return StatsNone
		}
	case OpLe:
		if max <= lit {
			return StatsAll
		}
		if min > lit {
			return StatsNone
		}
	case OpGt:
		if min > lit {
			return StatsAll
		}
		if max <= lit {
			return StatsNone
		}
	case OpGe:
		if min >= lit {
			return StatsAll
		}
		if max < lit {
			return StatsNone
		}
	}
	return StatsUnknown
}

// EvalExpr evaluates a predicate tree over n rows, obtaining each leaf
// comparison's bitmap from leaf (which may push down, prune via stats, or
// compute locally) and combining them with AND/OR/NOT at the coordinator.
func EvalExpr(e Expr, n int, leaf func(c *Compare) (*bitmap.Bitmap, error)) (*bitmap.Bitmap, error) {
	switch node := e.(type) {
	case *Compare:
		b, err := leaf(node)
		if err != nil {
			return nil, err
		}
		if b.Len() != n {
			return nil, fmt.Errorf("sql: leaf bitmap has %d rows, want %d", b.Len(), n)
		}
		return b, nil
	case *Binary:
		l, err := EvalExpr(node.L, n, leaf)
		if err != nil {
			return nil, err
		}
		r, err := EvalExpr(node.R, n, leaf)
		if err != nil {
			return nil, err
		}
		if node.Op == OpAnd {
			err = l.And(r)
		} else {
			err = l.Or(r)
		}
		return l, err
	case *Not:
		b, err := EvalExpr(node.E, n, leaf)
		if err != nil {
			return nil, err
		}
		b.Not()
		return b, nil
	default:
		return nil, fmt.Errorf("sql: unknown expression node %T", e)
	}
}

// AggState accumulates one aggregate across chunks.
type AggState struct {
	Kind  AggKind
	Count int64
	Sum   float64
	// Min/Max track extrema; Init reports whether any value was seen.
	Init       bool
	MinF, MaxF float64
	MinS, MaxS string
	IsString   bool
}

// NewAggState returns an accumulator for the given aggregate kind.
func NewAggState(kind AggKind) *AggState { return &AggState{Kind: kind} }

// AddColumn folds every value of a decoded column into the accumulator, in
// row order. Every execution path (node pushdown, coordinator fallback,
// grouped tables) folds a value the way this function does — through addNum
// and addStr, in row order — so partial states are bit-identical no matter
// where they were computed.
func (a *AggState) AddColumn(col lpq.ColumnData) {
	switch col.Type {
	case lpq.Int64:
		for _, v := range col.Ints {
			a.addNum(float64(v))
		}
	case lpq.Float64:
		for _, v := range col.Floats {
			a.addNum(v)
		}
	default:
		for _, v := range col.Strings {
			a.addStr(v)
		}
	}
}

func (a *AggState) addNum(f float64) {
	a.Count++
	a.Sum += f
	if !a.Init || f < a.MinF {
		a.MinF = f
	}
	if !a.Init || f > a.MaxF {
		a.MaxF = f
	}
	a.Init = true
}

func (a *AggState) addStr(s string) {
	a.Count++
	a.IsString = true
	if !a.Init || s < a.MinS {
		a.MinS = s
	}
	if !a.Init || s > a.MaxS {
		a.MaxS = s
	}
	a.Init = true
}

// addBytes is addStr for a value still inside its chunk: compared in place,
// copied out only when it becomes the new minimum or maximum.
func (a *AggState) addBytes(b []byte) {
	a.Count++
	a.IsString = true
	if !a.Init || string(b) < a.MinS {
		a.MinS = string(b)
	}
	if !a.Init || string(b) > a.MaxS {
		a.MaxS = string(b)
	}
	a.Init = true
}

// AddCount folds a bare row count (for COUNT(*), which needs no column).
func (a *AggState) AddCount(n int) { a.Count += int64(n) }

// Merge folds another accumulator's state into a. Storage nodes compute
// partial aggregates over their chunks (aggregate pushdown, the paper's §5
// future-work extension) and the coordinator merges the partials.
func (a *AggState) Merge(p *AggState) {
	if p == nil || (!p.Init && p.Count == 0) {
		return
	}
	a.Count += p.Count
	a.Sum += p.Sum
	if !p.Init {
		return
	}
	if p.IsString {
		a.IsString = true
		if !a.Init || p.MinS < a.MinS {
			a.MinS = p.MinS
		}
		if !a.Init || p.MaxS > a.MaxS {
			a.MaxS = p.MaxS
		}
	} else {
		if !a.Init || p.MinF < a.MinF {
			a.MinF = p.MinF
		}
		if !a.Init || p.MaxF > a.MaxF {
			a.MaxF = p.MaxF
		}
	}
	a.Init = true
}

// Result returns the final aggregate value as a literal.
func (a *AggState) Result() Literal {
	switch a.Kind {
	case AggCount:
		return IntLit(a.Count)
	case AggSum:
		return FloatLit(a.Sum)
	case AggAvg:
		if a.Count == 0 {
			return FloatLit(0)
		}
		return FloatLit(a.Sum / float64(a.Count))
	case AggMin:
		if a.IsString {
			return StringLit(a.MinS)
		}
		return FloatLit(a.MinF)
	default: // AggMax
		if a.IsString {
			return StringLit(a.MaxS)
		}
		return FloatLit(a.MaxF)
	}
}
