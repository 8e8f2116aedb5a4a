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

// foldStrings adds row i of the batch, a string, to the state of group
// gids[i], for every row of the batch in row order, as AggState.AddColumn
// adds a decoded value.
func (c *chunkCursor) foldStrings(groups []GroupPartial, ai int, gids []int32) {
	if c.isDict {
		for i, id := range gids {
			groups[id].Aggs[ai].addStr(c.dict.Strings[c.codes[i]])
		}
		return
	}
	for i, id := range gids {
		groups[id].Aggs[ai].addBytes(c.sc.Bytes(i))
	}
}

// numAcc is one group's numeric aggregate state while a fold runs: the fields
// AggState.addNum keeps but the count, which is the group's row count (every
// row has a value), in an array indexed by group id.
type numAcc struct {
	sum      float64
	min, max float64
	init     bool
}

// foldNums adds vals[i] to the state of group gids[i], for every row in row
// order, exactly as AggState.addNum does — so a float sum is bit-identical
// to folding the decoded column.
func foldNums[T int64 | float64](accs []numAcc, gids []int32, vals []T) {
	gids = gids[:len(vals)]
	for i, v := range vals {
		a, f := &accs[gids[i]], float64(v)
		a.sum += f
		switch {
		case !a.init:
			a.min, a.max, a.init = f, f, true
		case f < a.min:
			a.min = f
		case f > a.max:
			a.max = f
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
// or nil for COUNT(*). A fold that reads no column at all is refused: nothing
// would say how many rows there are.
//
// A batch's rows are first resolved to group ids: with no key — an ungrouped
// aggregate — every row joins one group and no key bytes are built; a lone
// dictionary-encoded key resolves its group once per dictionary code; every
// other key shape goes through the key-bytes map. Each numeric aggregate then
// folds the batch in one typed loop into per-group arrays (foldNums), seeded
// from the groups' states and written back to them at the end, and string
// MIN/MAX into the states row by row; row counts and COUNT(*) add up per
// group. Every state sees its group's rows in row order, so the result is
// the AddRows state bit for bit. When the cap trips the rows before the one
// that tripped it are folded, as AddRows does; on any other error the table
// holds a partial fold and must be discarded.
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
	f := g.newFold(keyCur, valCur)
	err = f.run(cursors)
	f.store()
	return err
}

// fold is one AddChunks call's state: how rows find their group, and per
// group id the rows it added and each numeric aggregate's accumulator (nil
// for COUNT(*) and strings).
type fold struct {
	g              *GroupTable
	keyCur, valCur []*chunkCursor
	one            int32   // the group of every row, with no key; -1 until met
	slots          []int32 // by code of the lone dictionary key, -1 until met
	keyBuf         []byte
	rows           []int64
	nums           [][]numAcc
}

// newFold seeds the accumulators from the states of the groups the table
// holds.
func (g *GroupTable) newFold(keyCur, valCur []*chunkCursor) *fold {
	f := &fold{g: g, keyCur: keyCur, valCur: valCur, one: -1,
		rows: make([]int64, len(g.groups)), nums: make([][]numAcc, len(valCur))}
	if len(keyCur) == 1 && keyCur[0].isDict {
		f.slots = make([]int32, keyCur[0].dict.Len())
		for i := range f.slots {
			f.slots[i] = -1
		}
	}
	for ai, vc := range valCur {
		if vc == nil || vc.ch.Type() == lpq.String {
			continue
		}
		accs := make([]numAcc, len(g.groups))
		for id := range g.groups {
			a := &g.groups[id].Aggs[ai]
			accs[id] = numAcc{a.Sum, a.MinF, a.MaxF, a.Init}
		}
		f.nums[ai] = accs
	}
	return f
}

// grow gives the groups the table made since the fold last looked empty
// accumulators, as their states are.
func (f *fold) grow() {
	for len(f.rows) < len(f.g.groups) {
		f.rows = append(f.rows, 0)
		for ai := range f.nums {
			if f.nums[ai] != nil {
				f.nums[ai] = append(f.nums[ai], numAcc{})
			}
		}
	}
}

// run folds batch after batch until the cursors end.
func (f *fold) run(cursors []chunkCursor) error {
	var gids [lpq.BatchRows]int32
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
		m, err := f.resolve(gids[:n])
		f.batch(gids[:m])
		if err != nil {
			return err
		}
	}
}

// resolve sets gids[i] to the id of row i's group for the rows of the batch,
// and counts each row to its group. It returns how many rows it resolved: all,
// or those before the one whose new group the cap refused.
func (f *fold) resolve(gids []int32) (int, error) {
	switch {
	case len(f.keyCur) == 0:
		if f.one < 0 {
			id, err := f.groupOf(0)
			if err != nil {
				return 0, err
			}
			f.one = id
			f.grow()
		}
		for i := range gids {
			gids[i] = f.one
		}
		f.rows[f.one] += int64(len(gids))
	case f.slots != nil:
		slots, rows := f.slots, f.rows
		for i, code := range f.keyCur[0].codes[:len(gids)] {
			id := slots[code]
			if id < 0 {
				var err error
				if id, err = f.groupOf(i); err != nil {
					return i, err
				}
				slots[code] = id
				f.grow()
				rows = f.rows
			}
			gids[i] = id
			rows[id]++
		}
	default:
		for i := range gids {
			id, err := f.groupOf(i)
			if err != nil {
				return i, err
			}
			f.grow()
			gids[i] = id
			f.rows[id]++
		}
	}
	return len(gids), nil
}

// groupOf returns the id of row i's group, making the group if it is new.
func (f *fold) groupOf(i int) (int32, error) {
	f.keyBuf = f.keyBuf[:0]
	for _, kc := range f.keyCur {
		f.keyBuf = kc.appendKey(f.keyBuf, i)
	}
	if id, ok := f.g.ids[string(f.keyBuf)]; ok {
		return id, nil
	}
	key := make([]Literal, len(f.keyCur))
	for ki, kc := range f.keyCur {
		key[ki] = kc.literal(i)
	}
	return f.g.add(f.keyBuf, key)
}

// batch folds the first len(gids) rows of the cursors' batch, row i into
// group gids[i]: one aggregate at a time, so each still sees its group's
// rows in row order.
func (f *fold) batch(gids []int32) {
	for ai, vc := range f.valCur {
		switch {
		case vc == nil: // COUNT(*): the rows, added up at the end
		case f.nums[ai] == nil:
			vc.foldStrings(f.g.groups, ai, gids)
		case vc.ch.Type() == lpq.Int64:
			foldNums(f.nums[ai], gids, vc.ints[:len(gids)])
		default:
			foldNums(f.nums[ai], gids, vc.floats[:len(gids)])
		}
	}
}

// store writes the fold back into the groups' states.
func (f *fold) store() {
	for id, n := range f.rows {
		gp := &f.g.groups[id]
		gp.Rows += n
		for ai, vc := range f.valCur {
			if vc == nil {
				gp.Aggs[ai].Count += n
			} else if accs := f.nums[ai]; accs != nil {
				a := &gp.Aggs[ai]
				a.Count += n
				a.Sum, a.MinF, a.MaxF, a.Init = accs[id].sum, accs[id].min, accs[id].max, accs[id].init
			}
		}
	}
}

// PushChunk offers the rows of an opened chunk that sel selects (nil selects
// every row) as candidates of row group rg. Once k rows are held, a row is
// first compared with the key that currently places last — a typed compare,
// no literal built — and the common row that cannot place costs only that.
// From then on, where the chunk's kind has a candidate test, it is asked page
// by page which rows may still reach that key (lpq.Chunk.Reaching), and only
// those are decoded and compared. The candidates hold every row that can
// place, and each goes through the same compare, so the rows kept and their
// order are what comparing every row gives.
func (t *TopK) PushChunk(ch *lpq.Chunk, sel *bitmap.Bitmap, rg int32) error {
	var c chunkCursor
	if err := c.start(ch, sel); err != nil {
		return err
	}
	for c.next() {
		t.pushBatch(&c, rg)
		if _, ok := t.cut(ch); ok {
			return t.pushReaching(ch, sel, rg, int(c.sc.Row(c.n-1))+1)
		}
	}
	return c.sc.Err()
}

// pushReaching is PushChunk from row from on, once the chunk can narrow the
// cut-off t holds: a page at a time, the rows that may reach the cut-off as it
// stands when the page starts, and that sel selects, are scanned.
func (t *TopK) pushReaching(ch *lpq.Chunk, sel *bitmap.Bitmap, rg int32, from int) error {
	cand := bitmap.New(ch.NumRows())
	words := cand.Words()
	var selWords []uint64
	if sel != nil && !sel.Full() {
		selWords = sel.Words()
	}
	var c chunkCursor
	for from < ch.NumRows() {
		end := ch.NumRows()
		if cut, ok := t.cut(ch); ok {
			var err error
			if end, err = ch.Reaching(cand, from, cut); err != nil {
				return err
			}
		} else {
			cand.SetRange(from, end) // a merged key of another kind places last
		}
		page := words[from>>6 : (end+63)>>6]
		if selWords != nil {
			for i, w := range selWords[from>>6 : (end+63)>>6] {
				page[i] &= w
			}
		}
		if err := c.start(ch, cand); err != nil {
			return err
		}
		for c.next() {
			t.pushBatch(&c, rg)
		}
		if err := c.sc.Err(); err != nil {
			return err
		}
		clear(page)
		from = end
	}
	return nil
}

// cut returns the key that places last as the pages of ch test it, if k rows
// are held, ch's kind has a candidate test and the key is of ch's type.
func (t *TopK) cut(ch *lpq.Chunk) (lpq.Cut, bool) {
	if !ch.Narrows() {
		return lpq.Cut{}, false
	}
	if key, ok := t.lastKey(LitInt); ok && ch.Type() == lpq.Int64 {
		return lpq.Cut{Int: key.I, Desc: t.desc}, true
	}
	if key, ok := t.lastKey(LitFloat); ok && ch.Type() == lpq.Float64 {
		return lpq.Cut{Float: key.F, Desc: t.desc}, true
	}
	return lpq.Cut{}, false
}

// pushBatch offers the rows of the cursor's batch.
func (t *TopK) pushBatch(c *chunkCursor, rg int32) {
	t.scanned += c.n
	// The cut-off a row must beat is held here and read again only after a
	// Push, the one call that moves it.
	switch {
	case c.ch.Type() == lpq.Int64:
		last, ok := t.lastKey(LitInt)
		for i, v := range c.ints {
			if !ok || !sortsAfter(v, last.I, t.desc) {
				t.Push(IntLit(v), rg, c.sc.Row(i))
				last, ok = t.lastKey(LitInt)
			}
		}
	case c.ch.Type() == lpq.Float64:
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
