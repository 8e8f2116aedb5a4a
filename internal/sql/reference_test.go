package sql

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/lpq"
)

// This file is the naive reference the chunk kernels are property-tested
// against (the gf256 naive-kernel pattern): value-at-a-time comparison,
// grouping over fully decoded columns with a key string and a map lookup per
// row — GroupTable.AddRows as nodes and coordinator ran it before AddChunks —
// folding a decoded column a value at a time, and a top-k that keeps every
// row and sorts.

func cmpInt(v, lit int64, op CmpOp) bool {
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

func cmpString(v, lit string, op CmpOp) bool {
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

// AddValue folds row i of a decoded column into the accumulator.
func (a *AggState) AddValue(col lpq.ColumnData, i int) {
	switch col.Type {
	case lpq.Int64:
		a.addNum(float64(col.Ints[i]))
	case lpq.Float64:
		a.addNum(col.Floats[i])
	default:
		a.addStr(col.Strings[i])
	}
}

// addSelected folds the rows of a decoded column that sel selects, in row
// order.
func (a *AggState) addSelected(col lpq.ColumnData, sel *bitmap.Bitmap) {
	sel.ForEach(func(i int) { a.AddValue(col, i) })
}

// AddRows folds the selected rows into the table. keys holds the grouping
// columns; vals[i] is the argument column of aggregate i, or a zero-length
// ColumnData for COUNT(*). All non-empty columns must have sel.Len() rows.
func (g *GroupTable) AddRows(keys []lpq.ColumnData, vals []lpq.ColumnData, sel *bitmap.Bitmap) error {
	if len(vals) != len(g.kinds) {
		return errors.New("sql: GroupTable.AddRows: vals/kinds length mismatch")
	}
	var keyBuf []byte
	var addErr error
	sel.ForEach(func(i int) {
		if addErr != nil {
			return
		}
		keyBuf = appendGroupKey(keyBuf[:0], keys, i)
		id, ok := g.ids[string(keyBuf)]
		if !ok {
			if id, addErr = g.add(keyBuf, keyLiterals(keys, i)); addErr != nil {
				return
			}
		}
		gp := &g.groups[id]
		gp.Rows++
		for ai := range g.kinds {
			if vals[ai].Len() == 0 {
				gp.Aggs[ai].Count++ // COUNT(*): no argument column
				continue
			}
			gp.Aggs[ai].AddValue(vals[ai], i)
		}
	})
	return addErr
}

// keyLiterals extracts row i of the key columns as literals.
func keyLiterals(keys []lpq.ColumnData, i int) []Literal {
	out := make([]Literal, len(keys))
	for ki, col := range keys {
		switch col.Type {
		case lpq.Int64:
			out[ki] = IntLit(col.Ints[i])
		case lpq.Float64:
			out[ki] = FloatLit(col.Floats[i])
		default:
			out[ki] = StringLit(col.Strings[i])
		}
	}
	return out
}

// appendGroupKey appends a canonical byte encoding of row i's key tuple:
// a type tag then a fixed or length-prefixed payload per column, so
// distinct tuples never collide.
func appendGroupKey(dst []byte, keys []lpq.ColumnData, i int) []byte {
	for _, col := range keys {
		switch col.Type {
		case lpq.Int64:
			dst = append(dst, 'i')
			dst = binary.LittleEndian.AppendUint64(dst, uint64(col.Ints[i]))
		case lpq.Float64:
			dst = append(dst, 'f')
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(col.Floats[i]))
		default:
			s := col.Strings[i]
			dst = append(dst, 's')
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
	}
	return dst
}

// referenceTopK is top-k by keeping every candidate: sort them all by (key,
// rg, row) and cut at k.
func referenceTopK(k int, desc bool, rows []TopRow) []TopRow {
	out := append([]TopRow(nil), rows...)
	order := &TopK{desc: desc}
	slices.SortFunc(out, func(a, b TopRow) int {
		switch {
		case order.less(a, b):
			return -1
		case order.less(b, a):
			return 1
		}
		return 0
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
