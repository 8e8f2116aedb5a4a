package sql

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/colenc"
	"github.com/fusionstore/fusion/internal/lpq"
)

// This file is the query kernels over an opened chunk (lpq.Chunk): filter,
// group-by (an ungrouped aggregate being a grouping with no key) and top-k
// computed on the encoded pages, touching only the rows a selection names and
// building no value slice. Storage nodes and the coordinator's fallback call
// the same three, so a result is bit-identical wherever it was computed; each
// is property-tested against decoding the whole chunk and going value by
// value (kernels_test.go).

// FilterChunk is EvalCompare over an opened chunk. A dictionary chunk
// evaluates the comparison once over its dictionary and maps the verdicts
// through the codes; a frame-of-reference chunk meets an integer literal in
// offset space, the bound translated once per page; every other page is
// compared a batch at a time as the Scanner reads it.
func FilterChunk(c *Compare, ch *lpq.Chunk) (*bitmap.Bitmap, error) {
	if err := CheckType(c, ch.Type()); err != nil {
		return nil, err
	}
	if dict, ok := ch.Dict(); ok {
		verdict, err := EvalCompare(c, dict)
		if err != nil {
			return nil, err
		}
		return ch.SelectCodes(verdict)
	}
	if ch.Encoding() == colenc.FOR && c.Value.Kind == LitInt {
		// != is the complement of one value; every other operator admits one
		// closed range.
		if v := c.Value.I; c.Op == OpNe {
			return ch.SelectInts(v, v, true)
		}
		lo, hi := narrowInts(math.MinInt64, math.MaxInt64, c)
		return ch.SelectInts(lo, hi, false)
	}
	out := bitmap.New(ch.NumRows())
	words := out.Words()
	var lit []byte
	if ch.Type() == lpq.String {
		lit = []byte(c.Value.S)
	}
	var sc lpq.Scanner
	if err := ch.Scan(&sc, nil); err != nil {
		return nil, err
	}
	for sc.Next() {
		// A scan of every row steps BatchRows at a time, so a batch starts
		// on a word boundary.
		first := int(sc.Row(0))
		switch ch.Type() {
		case lpq.Int64:
			if err := compareInto(c, lpq.IntColumn(sc.Ints()), words[first/64:]); err != nil {
				return nil, err
			}
		case lpq.Float64:
			if err := compareInto(c, lpq.FloatColumn(sc.Floats()), words[first/64:]); err != nil {
				return nil, err
			}
		default:
			for i := 0; i < sc.Len(); i++ {
				if opHolds(bytes.Compare(sc.Bytes(i), lit), c.Op) {
					out.Set(first + i)
				}
			}
		}
	}
	return out, sc.Err()
}

// FilterAll is the AND of FilterChunk(c, ch) over cs, every leaf reading the
// one chunk ch; with no leaf it selects every row. On a frame-of-reference
// chunk the integer bounds among them (=, <, <=, >, >=) are intersected into
// one closed range and run as one SelectInts pass, so a range predicate's two
// bounds read the rows once; a != is no one range and runs alone. The other
// leaves follow in order, and the first empty result ends the evaluation —
// after every leaf's type was checked, so a leaf that cannot be evaluated is
// an error however the others turn out.
func FilterAll(cs []*Compare, ch *lpq.Chunk) (*bitmap.Bitmap, error) {
	for _, c := range cs {
		if err := CheckType(c, ch.Type()); err != nil {
			return nil, err
		}
	}
	folds := func(c *Compare) bool {
		return ch.Encoding() == colenc.FOR && c.Value.Kind == LitInt && c.Op != OpNe
	}
	var out *bitmap.Bitmap
	lo, hi, folded := int64(math.MinInt64), int64(math.MaxInt64), false
	for _, c := range cs {
		if folds(c) {
			lo, hi = narrowInts(lo, hi, c)
			folded = true
		}
	}
	if folded {
		var err error
		if out, err = ch.SelectInts(lo, hi, false); err != nil {
			return nil, err
		}
	}
	for _, c := range cs {
		if folds(c) {
			continue
		}
		if out != nil && out.Count() == 0 {
			break
		}
		bm, err := FilterChunk(c, ch)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = bm
		} else if err := out.And(bm); err != nil {
			return nil, err
		}
	}
	if out == nil {
		out = bitmap.NewFull(ch.NumRows())
	}
	return out, nil
}

// narrowInts intersects the closed range [lo, hi] with the integers c admits,
// c being an integer comparison other than !=. A bound moves by one only away
// from the end of int64 it cannot cross: x < MinInt64 and x > MaxInt64 admit
// nothing, and the range they leave is empty (lo > hi), as is every range
// narrowed from an empty one.
func narrowInts(lo, hi int64, c *Compare) (int64, int64) {
	v := c.Value.I
	switch c.Op {
	case OpEq:
		return max(lo, v), min(hi, v)
	case OpLt:
		if v == math.MinInt64 {
			return 1, 0
		}
		return lo, min(hi, v-1)
	case OpLe:
		return lo, min(hi, v)
	case OpGt:
		if v == math.MaxInt64 {
			return 1, 0
		}
		return max(lo, v+1), hi
	default:
		return max(lo, v), hi
	}
}

// opHolds reports whether a three-way comparison result satisfies op.
func opHolds(cmp int, op CmpOp) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	default:
		return cmp >= 0
	}
}

// chunkCursor is one chunk under scan by a fold kernel: the scanner plus the
// current batch's values, re-sliced once per batch.
type chunkCursor struct {
	ch     *lpq.Chunk
	sc     lpq.Scanner
	dict   lpq.ColumnData
	isDict bool

	n      int
	codes  []uint32
	ints   []int64
	floats []float64
}

func (c *chunkCursor) start(ch *lpq.Chunk, sel *bitmap.Bitmap) error {
	c.ch = ch
	c.dict, c.isDict = ch.Dict()
	return ch.Scan(&c.sc, sel)
}

// next advances to the next batch, reporting false at the end of the
// selection or on a malformed page (c.sc.Err tells which).
func (c *chunkCursor) next() bool {
	if !c.sc.Next() {
		c.n = 0
		return false
	}
	c.n, c.codes, c.ints, c.floats = c.sc.Len(), c.sc.Codes(), c.sc.Ints(), c.sc.Floats()
	return true
}

// foldBatch adds row i of the batch to accs[i], for every row of the batch in
// row order, exactly as AggState.AddColumn adds a decoded value — so a float
// sum is bit-identical to folding the decoded column. The column's type is
// resolved once per batch, not once per row.
func (c *chunkCursor) foldBatch(accs []*AggState) {
	switch {
	case c.ch.Type() == lpq.Int64:
		for i, v := range c.ints {
			accs[i].addNum(float64(v))
		}
	case c.ch.Type() == lpq.Float64:
		for i, v := range c.floats {
			accs[i].addNum(v)
		}
	case c.isDict:
		for i, code := range c.codes {
			accs[i].addStr(c.dict.Strings[code])
		}
	default:
		for i := range accs {
			accs[i].addBytes(c.sc.Bytes(i))
		}
	}
}

// literal boxes row i of the batch. A string is copied out of a plain chunk
// (a dictionary entry already owns its memory), so the literal outlives the
// chunk's release.
func (c *chunkCursor) literal(i int) Literal {
	switch {
	case c.ch.Type() == lpq.Int64:
		return IntLit(c.ints[i])
	case c.ch.Type() == lpq.Float64:
		return FloatLit(c.floats[i])
	case c.isDict:
		return StringLit(c.dict.Strings[c.codes[i]])
	default:
		return StringLit(string(c.sc.Bytes(i)))
	}
}

// appendKey appends row i's canonical group-key encoding (appendKeyLit).
func (c *chunkCursor) appendKey(dst []byte, i int) []byte {
	if c.ch.Type() == lpq.String && !c.isDict {
		b := c.sc.Bytes(i) // encoded in place: boxing it would copy it
		return append(binary.AppendUvarint(append(dst, 's'), uint64(len(b))), b...)
	}
	return appendKeyLit(dst, c.literal(i))
}

// AddChunks folds the selected rows of one row group into the table, reading
// the grouping and argument columns from opened chunks in lockstep. keys
// holds the grouping columns; vals[i] is the argument column of aggregate i,
// or nil for COUNT(*). With no key — an ungrouped aggregate — every row joins
// one group and no key bytes are built. A lone dictionary-encoded key
// resolves its group once per dictionary code, not once per row; every other
// key shape goes through the key-bytes map. A fold that reads no column at
// all is refused: nothing would say how many rows there are. On error the
// table holds a partial fold and must be discarded.
func (g *GroupTable) AddChunks(keys, vals []*lpq.Chunk, sel *bitmap.Bitmap) error {
	if len(vals) != len(g.kinds) {
		return errors.New("sql: GroupTable.AddChunks: vals/kinds length mismatch")
	}
	var cols []*lpq.Chunk
	for _, ch := range append(append([]*lpq.Chunk(nil), keys...), vals...) {
		if ch != nil {
			cols = append(cols, ch)
		}
	}
	if len(cols) == 0 {
		return errors.New("sql: GroupTable.AddChunks: reads no column")
	}
	for _, ch := range cols {
		// With a selection, Scan checks each chunk against it as well.
		if ch.NumRows() != cols[0].NumRows() {
			return errors.New("sql: GroupTable.AddChunks: columns differ in row count")
		}
	}
	// One cursor per distinct chunk: SUM(x), AVG(x) share x's scan. The
	// capacity is never exceeded, so pointers into the slice stay valid.
	cursors := make([]chunkCursor, 0, len(keys)+len(vals))
	cursorOf := func(ch *lpq.Chunk) (*chunkCursor, error) {
		for i := range cursors {
			if cursors[i].ch == ch {
				return &cursors[i], nil
			}
		}
		cursors = append(cursors, chunkCursor{})
		c := &cursors[len(cursors)-1]
		return c, c.start(ch, sel)
	}
	keyCur := make([]*chunkCursor, len(keys))
	valCur := make([]*chunkCursor, len(vals))
	var err error
	for i, ch := range keys {
		if keyCur[i], err = cursorOf(ch); err != nil {
			return err
		}
	}
	for i, ch := range vals {
		if ch == nil {
			continue
		}
		if valCur[i], err = cursorOf(ch); err != nil {
			return err
		}
	}
	var one *GroupPartial     // the group of every row, with no key
	var slots []*GroupPartial // by code of the lone dictionary key
	if len(keys) == 1 && keyCur[0].isDict {
		slots = make([]*GroupPartial, keyCur[0].dict.Len())
	}
	var keyBuf []byte
	var groups [lpq.BatchRows]*GroupPartial
	var accs [lpq.BatchRows]*AggState
	for {
		// The cursors share the selection, so they step batch for batch.
		for i := range cursors {
			if !cursors[i].next() {
				if err := cursors[i].sc.Err(); err != nil {
					return err
				}
			}
		}
		n := cursors[0].n
		if n == 0 {
			return nil
		}
		// First each row's group, then one column at a time: an aggregate
		// still sees its group's rows in row order.
		for i := 0; i < n; i++ {
			gp := one
			if slots != nil {
				gp = slots[keyCur[0].codes[i]]
			}
			if gp == nil {
				keyBuf = keyBuf[:0]
				for _, kc := range keyCur {
					keyBuf = kc.appendKey(keyBuf, i)
				}
				if gp = g.m[string(keyBuf)]; gp == nil {
					if g.maxGroups > 0 && len(g.m) >= g.maxGroups {
						return ErrTooManyGroups
					}
					key := make([]Literal, len(keyCur))
					for ki, kc := range keyCur {
						key[ki] = kc.literal(i)
					}
					gp = g.newGroup(key)
					g.m[string(keyBuf)] = gp
				}
				if slots != nil {
					slots[keyCur[0].codes[i]] = gp
				}
				if len(keyCur) == 0 {
					one = gp
				}
			}
			gp.Rows++
			groups[i] = gp
		}
		for ai, vc := range valCur {
			if vc == nil {
				for _, gp := range groups[:n] {
					gp.Aggs[ai].Count++ // COUNT(*): no argument column
				}
				continue
			}
			for i, gp := range groups[:n] {
				accs[i] = &gp.Aggs[ai]
			}
			vc.foldBatch(accs[:n])
		}
	}
}

// PushChunk offers the rows of an opened chunk that sel selects (nil selects
// every row) as candidates of row group rg. Once k rows are held, a row is
// first compared with the key that currently places last — a typed compare,
// no literal built — and the common row that cannot place costs only that.
func (t *TopK) PushChunk(ch *lpq.Chunk, sel *bitmap.Bitmap, rg int32) error {
	var c chunkCursor
	if err := c.start(ch, sel); err != nil {
		return err
	}
	// The cut-off a row must beat is held here and read again only after a
	// Push, the one call that moves it.
	for c.next() {
		switch {
		case ch.Type() == lpq.Int64:
			last, ok := t.lastKey(LitInt)
			for i, v := range c.ints {
				if !ok || !sortsAfter(v, last.I, t.desc) {
					t.Push(IntLit(v), rg, c.sc.Row(i))
					last, ok = t.lastKey(LitInt)
				}
			}
		case ch.Type() == lpq.Float64:
			last, ok := t.lastKey(LitFloat)
			for i, v := range c.floats {
				if !ok || !sortsAfter(v, last.F, t.desc) {
					t.Push(FloatLit(v), rg, c.sc.Row(i))
					last, ok = t.lastKey(LitFloat)
				}
			}
		case c.isDict:
			last, ok := t.lastKey(LitString)
			for i, code := range c.codes {
				if !ok || !sortsAfter(c.dict.Strings[code], last.S, t.desc) {
					t.Push(StringLit(c.dict.Strings[code]), rg, c.sc.Row(i))
					last, ok = t.lastKey(LitString)
				}
			}
		default:
			last, ok := t.lastKey(LitString)
			for i := 0; i < c.n; i++ {
				// Compared in place, copied out of the chunk only if it may place.
				b := c.sc.Bytes(i)
				if !ok || !bytesSortAfter(b, last.S, t.desc) {
					t.Push(StringLit(string(b)), rg, c.sc.Row(i))
					last, ok = t.lastKey(LitString)
				}
			}
		}
	}
	return c.sc.Err()
}

// lastKey returns the key of the row that currently places last, if k rows
// are held and that key is of the given kind (it always is, unless merged
// candidates mixed kinds).
func (t *TopK) lastKey(kind LitKind) (*Literal, bool) {
	if !t.full() || t.rows[0].Key.Kind != kind {
		return nil, false
	}
	return &t.rows[0].Key, true
}

// bytesSortAfter is sortsAfter for a string still in a chunk's bytes. The
// conversions in the comparisons read b in place, at any length; passed to
// sortsAfter, a value of more than 32 bytes would be copied to the heap.
func bytesSortAfter(b []byte, key string, desc bool) bool {
	if desc {
		return string(b) < key
	}
	return string(b) > key
}

// sortsAfter reports whether v sorts strictly after key in the given
// direction, so that a row with key v cannot displace a held row with that key
// whatever their positions. It is false for ties and whenever either side is
// NaN: Push then decides by the full (key, rg, row) order of CompareLiterals.
func sortsAfter[T int64 | float64 | string](v, key T, desc bool) bool {
	if desc {
		return v < key
	}
	return v > key
}
