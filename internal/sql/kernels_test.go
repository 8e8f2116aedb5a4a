package sql

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/bufpool"
	"github.com/fusionstore/fusion/internal/colenc"
	"github.com/fusionstore/fusion/internal/lpq"
)

// The kernels are checked against decoding the chunk and going value by value
// (reference_test.go) over chunks the real writer produced, in every encoding
// it can pick. lpq's own tests pin DecodeChunk to the page-by-page decoder, so
// a decoded column is ground truth here.

// codeShape is how a generated column's values repeat, which decides the
// encoding the writer picks for its pages.
type codeShape int

const (
	shapePlain   codeShape = iota // all but unique, dictionary off: plain pages
	shapePacked                   // few values in random order: bit-packed codes
	shapeRuns                     // few values in long runs: run-length codes
	shapeMixed                    // runs then noise: both kinds of code page
	shapeFrame                    // all but unique in a narrow range: frame-of-reference ints, decimal floats a third of them an ulp off (corrections), FSST strings
	shapeText                     // comment-like strings, all but unique, some bytes no symbol covers: FSST (strings only)
	shapeEscapes                  // decimal floats as in frame, a fifth of them besides two ulps off or random bits: escapes (floats only)
	shapeSorted                   // ascending in steps of 0 or 1, as l_orderkey: frame-of-reference delta pages (ints only)
	numShapes
)

func (s codeShape) String() string {
	return [...]string{"plain", "packed", "runs", "mixed", "frame", "text", "escapes", "sorted"}[s]
}

// wantEncoding is the kind of chunk the writer must make of a column of type
// t drawn in the given shape: the cases are forced by the data, not a switch.
func (s codeShape) wantEncoding(t lpq.Type) colenc.Encoding {
	switch {
	case s == shapePlain:
		return colenc.Plain
	case s == shapeText || (s == shapeFrame && t == lpq.String):
		return colenc.FSST
	case (s == shapeFrame || s == shapeSorted) && t == lpq.Int64:
		return colenc.FOR
	case s == shapeFrame || s == shapeEscapes:
		return colenc.Decimal
	}
	return colenc.Dict
}

// genColumn draws rows values of type t in the given shape from a domain of
// the given size (plain, frame and text ignore it). Floats include NaN, both
// zeros and an infinity. Ints are spread wide, so that a handful of them keeps
// its dictionary and only the frame shape's dense draw fits a frame of
// reference.
func genColumn(rng *rand.Rand, t lpq.Type, shape codeShape, rows, domain int) lpq.ColumnData {
	if shape == shapeText {
		return genText(rng, rows)
	}
	pick := func(i int) int {
		switch shape {
		case shapePlain, shapeFrame, shapeEscapes, shapeSorted:
			return rng.Intn(4 * rows)
		case shapeRuns:
			return i * 5 / rows
		case shapeMixed:
			if i < rows/2 {
				return i * 6 / rows
			}
		}
		return rng.Intn(domain)
	}
	// The writer's float dictionary tells values apart by bit pattern: both
	// zeros keep their sign, and the NaNs share one entry, so a run of them is
	// a run of codes.
	floats := []float64{0, math.Copysign(0, -1), math.Inf(1), -1.5, math.NaN()}
	col := lpq.ColumnData{Type: t}
	key := int64(1)<<40 + 3
	for i := 0; i < rows; i++ {
		v := pick(i)
		switch t {
		case lpq.Int64:
			if shape == shapeSorted {
				key += int64(v % 4 / 3) // a step of 1 every fourth row or so
				col.Ints = append(col.Ints, key)
				continue
			}
			col.Ints = append(col.Ints, int64(v)*1_000_003-3)
		case lpq.Float64:
			f := float64(v)*0.5 - 3
			switch {
			case v < len(floats):
				f = floats[v]
			case shape == shapeEscapes && v%10 == 1:
				f = math.Float64frombits(math.Float64bits(f) + 2) // two ulps off: an escape
			case shape == shapeEscapes && v%10 == 2:
				f = math.Float64frombits(rng.Uint64()) // random bits: an escape but by chance
			case (shape == shapeFrame || shape == shapeEscapes) && v%6 == 0:
				f = math.Nextafter(f, 0) // an ulp toward zero: a correction
			case (shape == shapeFrame || shape == shapeEscapes) && v%6 == 3:
				f = math.Nextafter(f, math.Copysign(math.Inf(1), f)) // an ulp away from it
			}
			col.Floats = append(col.Floats, f)
		default:
			col.Strings = append(col.Strings, fmt.Sprintf("v%04d", v))
		}
	}
	return col
}

// textWords is the vocabulary of the text shape.
var textWords = strings.Fields("furiously quickly carefully blithely slyly express pending regular " +
	"special ironic final bold even accounts deposits packages requests instructions " +
	"theodolites foxes pinto beans dependencies asymptotes sleep nag haggle wake")

// genText draws rows comment-like strings of 10 to 43 bytes, all but unique,
// every fifth ending in a byte no other text has (an escaped byte, which sorts
// above every letter), and row 1 empty.
func genText(rng *rand.Rand, rows int) lpq.ColumnData {
	col := lpq.ColumnData{Type: lpq.String, Strings: make([]string, rows)}
	for i := range col.Strings {
		s := textWords[rng.Intn(len(textWords))]
		for len(s) < 10+rng.Intn(34) {
			s += " " + textWords[rng.Intn(len(textWords))]
		}
		switch {
		case i == 1:
			s = ""
		case i%5 == 0:
			s += string([]byte{0xF0 | byte(rng.Intn(16))})
		}
		col.Strings[i] = s
	}
	return col
}

// openColumns writes cols as one row group and opens each chunk. What a
// kernel must reproduce is cols itself, bit for bit.
func openColumns(tb testing.TB, opts lpq.WriterOptions, cols []lpq.ColumnData) []*lpq.Chunk {
	tb.Helper()
	schema := make([]lpq.Column, len(cols))
	for i, c := range cols {
		schema[i] = lpq.Column{Name: fmt.Sprintf("c%d", i), Type: c.Type}
	}
	w := lpq.NewWriter(schema, opts)
	if err := w.WriteRowGroup(cols); err != nil {
		tb.Fatal(err)
	}
	data, err := w.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	f, err := lpq.Open(data)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]*lpq.Chunk, len(cols))
	for i := range cols {
		raw, err := f.ChunkBytes(0, i)
		if err != nil {
			tb.Fatal(err)
		}
		if out[i], err = lpq.OpenChunk(cols[i].Type, f.Footer().RowGroups[0].Chunks[i], raw); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// openColumn is openColumns for one column; it hands col back beside the chunk.
func openColumn(tb testing.TB, opts lpq.WriterOptions, col lpq.ColumnData) (*lpq.Chunk, lpq.ColumnData) {
	cols := []lpq.ColumnData{col}
	return openColumns(tb, opts, cols)[0], cols[0]
}

func writerOpts(shape codeShape, compress bool, pageRows int) lpq.WriterOptions {
	return lpq.WriterOptions{Compress: compress, DisableDict: shape == shapePlain, DictMaxFraction: 0.5, PageRows: pageRows}
}

// testSelections returns the selections the kernels are checked under, nil
// (every row, no bitmap) among them.
func testSelections(rng *rand.Rand, rows int) map[string]*bitmap.Bitmap {
	one := bitmap.New(rows)
	one.Set(rng.Intn(rows))
	sparse, half := bitmap.New(rows), bitmap.New(rows)
	for i := 0; i < rows; i++ {
		if rng.Intn(100) == 0 {
			sparse.Set(i)
		}
		if rng.Intn(2) == 0 {
			half.Set(i)
		}
	}
	// All rows but one at either end: a hair short of full, which a scan of
	// every row would get wrong.
	butFirst, butLast := bitmap.New(rows), bitmap.New(rows)
	butFirst.SetRange(1, rows)
	butLast.SetRange(0, rows-1)
	return map[string]*bitmap.Bitmap{
		"nil": nil, "empty": bitmap.New(rows), "full": bitmap.NewFull(rows),
		"one": one, "1%": sparse, "50%": half, "all but the first": butFirst, "all but the last": butLast,
	}
}

func orFull(sel *bitmap.Bitmap, rows int) *bitmap.Bitmap {
	if sel == nil {
		return bitmap.NewFull(rows)
	}
	return sel
}

var kernelLayouts = []struct {
	name           string
	rows, pageRows int
}{{"one-page", 1000, 20000}, {"short-last-page", 1000, 300}, {"one-row", 1, 20000}}

// forEachChunkCase runs fn over {Int64, Float64, String} x {plain, bit-packed,
// run-length, mixed code pages, frame-of-reference offset / decimal / FSST
// pages, FSST pages of text (strings only), decimal pages with escapes (floats
// only), frame-of-reference delta pages (ints only)} x
// {Snappy on, off} x {one page, several pages with a short last one, one row},
// with
// the pool poisoned so that anything a kernel returns that references a
// released chunk shows.
func forEachChunkCase(t *testing.T, fn func(t *testing.T, rng *rand.Rand, col lpq.ColumnData, opts lpq.WriterOptions)) {
	prev := bufpool.SetPoison(true)
	defer bufpool.SetPoison(prev)
	for _, typ := range []lpq.Type{lpq.Int64, lpq.Float64, lpq.String} {
		for shape := shapePlain; shape < numShapes; shape++ {
			if shape == shapeText && typ != lpq.String || shape == shapeEscapes && typ != lpq.Float64 || shape == shapeSorted && typ != lpq.Int64 {
				continue
			}
			for _, compress := range []bool{true, false} {
				for _, lay := range kernelLayouts {
					name := fmt.Sprintf("%v/%v/snappy=%v/%s", typ, shape, compress, lay.name)
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(len(name))*7919 + int64(shape)))
						col := genColumn(rng, typ, shape, lay.rows, 37)
						opts := writerOpts(shape, compress, lay.pageRows)
						if lay.rows > 1 { // one row cannot have a shape
							ch, _ := openColumn(t, opts, col)
							if got, want := ch.Encoding(), shape.wantEncoding(typ); got != want {
								t.Fatalf("the writer made a %v chunk of this column, the case is about %v", got, want)
							}
							if delta, pages := ch.DeltaPages(); (delta == pages && delta > 0) != (shape == shapeSorted) {
								t.Fatalf("%d of the chunk's %d pages are deltas, in the %v shape", delta, pages, shape)
							}
							ch.Release()
						}
						fn(t, rng, col, opts)
					})
				}
			}
		}
	}
}

// bruteCompare is the comparison one value at a time.
func bruteCompare(c *Compare, col lpq.ColumnData) (*bitmap.Bitmap, bool) {
	out := bitmap.New(col.Len())
	for i := 0; i < col.Len(); i++ {
		var hit bool
		switch {
		case col.Type == lpq.Int64 && c.Value.Kind == LitInt:
			hit = cmpInt(col.Ints[i], c.Value.I, c.Op)
		case col.Type == lpq.Int64 && c.Value.Kind == LitFloat:
			hit = cmpFloat(float64(col.Ints[i]), c.Value.F, c.Op)
		case col.Type == lpq.Float64 && c.Value.Kind != LitString:
			hit = cmpFloat(col.Floats[i], c.Value.AsFloat(), c.Op)
		case col.Type == lpq.String && c.Value.Kind == LitString:
			hit = cmpString(col.Strings[i], c.Value.S, c.Op)
		default:
			return nil, false // a type error
		}
		if hit {
			out.Set(i)
		}
	}
	return out, true
}

// TestFilterChunkMatchesReference: the filter kernel against value-at-a-time
// comparison, over the chunk matrix x the six operators x literals of every
// kind — present in the column, absent from it (and so from its dictionary),
// an int literal on a float column and the reverse, NaN — and type errors.
func TestFilterChunkMatchesReference(t *testing.T) {
	forEachChunkCase(t, func(t *testing.T, rng *rand.Rand, col lpq.ColumnData, opts lpq.WriterOptions) {
		ch, col := openColumn(t, opts, col)
		defer ch.Release()
		lits := []Literal{
			IntLit(5), IntLit(-1000), IntLit(1 << 40), IntLit(math.MinInt64), IntLit(math.MaxInt64),
			FloatLit(2.5), FloatLit(6), FloatLit(-0.25),
			FloatLit(math.NaN()), FloatLit(math.Inf(1)), FloatLit(0),
			StringLit("v0005"), StringLit("v0005x"), StringLit(""), StringLit("zzz"),
		}
		// And one value certainly present.
		switch col.Type {
		case lpq.Int64:
			lits = append(lits, IntLit(col.Ints[rng.Intn(col.Len())]))
		case lpq.Float64:
			lits = append(lits, FloatLit(col.Floats[rng.Intn(col.Len())]))
		default:
			lits = append(lits, StringLit(col.Strings[rng.Intn(col.Len())]))
		}
		for _, lit := range lits {
			for op := OpEq; op <= OpGe; op++ {
				cmp := &Compare{Column: "c", Op: op, Value: lit}
				want, ok := bruteCompare(cmp, col)
				got, err := FilterChunk(cmp, ch)
				if !ok {
					var typeErr *ErrType
					if err == nil || !errorsAs(err, &typeErr) {
						t.Fatalf("%v: want a type error, got %v", cmp, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%v: %v", cmp, err)
				}
				if got.Len() != want.Len() || !reflect.DeepEqual(got.Indexes(), want.Indexes()) {
					t.Fatalf("%v: kernel selects %d rows, value-at-a-time %d", cmp, got.Count(), want.Count())
				}
				// And EvalCompare over the decoded column, which the
				// benchmark's reference path uses.
				if dec, err := EvalCompare(cmp, col); err != nil || !reflect.DeepEqual(dec.Indexes(), want.Indexes()) {
					t.Fatalf("%v: EvalCompare differs from value-at-a-time (%v)", cmp, err)
				}
			}
		}
	})
}

func errorsAs(err error, target **ErrType) bool {
	e, ok := err.(*ErrType)
	if ok {
		*target = e
	}
	return ok
}

// sameAgg compares every field of two accumulators, floats by their bits.
func sameAgg(a, b *AggState) bool {
	return a.Kind == b.Kind && a.Count == b.Count && a.Init == b.Init && a.IsString == b.IsString &&
		math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
		math.Float64bits(a.MinF) == math.Float64bits(b.MinF) &&
		math.Float64bits(a.MaxF) == math.Float64bits(b.MaxF) &&
		a.MinS == b.MinS && a.MaxS == b.MaxS
}

// keyless folds the rows of ch that sel selects through AddChunks with no
// key, as an ungrouped SUM, and returns the state of its one group: a zero
// state when nothing is selected, which must then leave no group at all.
func keyless(ch *lpq.Chunk, sel *bitmap.Bitmap) (*AggState, error) {
	g := NewGroupTable([]AggKind{AggSum}, 0)
	if err := g.AddChunks(nil, []*lpq.Chunk{ch}, sel); err != nil {
		return nil, err
	}
	got := NewAggState(AggSum)
	groups := g.Sorted()
	switch {
	case len(groups) > 1:
		return nil, fmt.Errorf("%d groups with no key", len(groups))
	case len(groups) == 1 && (len(groups[0].Key) != 0 || groups[0].Rows != groups[0].Aggs[0].Count):
		return nil, fmt.Errorf("the one group is keyed %v with %d rows, its state counts %d", groups[0].Key, groups[0].Rows, groups[0].Aggs[0].Count)
	case len(groups) == 1:
		*got = groups[0].Aggs[0]
	}
	return got, nil
}

// TestKeylessFoldMatchesReference: the fold of an ungrouped aggregate (a
// GROUP BY with no key) against AddValue over the decoded column, every
// AggState field bit for bit, under every selection; and AddColumn over all
// of it.
func TestKeylessFoldMatchesReference(t *testing.T) {
	forEachChunkCase(t, func(t *testing.T, rng *rand.Rand, col lpq.ColumnData, opts lpq.WriterOptions) {
		ch, col := openColumn(t, opts, col)
		type pair struct{ got, want *AggState }
		var results []pair
		for name, sel := range testSelections(rng, col.Len()) {
			want := NewAggState(AggSum)
			want.addSelected(col, orFull(sel, col.Len()))
			got, err := keyless(ch, sel)
			if err != nil {
				t.Fatalf("selection %s: %v", name, err)
			}
			if !sameAgg(got, want) {
				t.Fatalf("selection %s: kernel %+v, reference %+v", name, *got, *want)
			}
			results = append(results, pair{got, want})
		}
		// AddColumn, the fold of values already gathered, is the same fold.
		whole, want := NewAggState(AggSum), NewAggState(AggSum)
		whole.AddColumn(col)
		want.addSelected(col, bitmap.NewFull(col.Len()))
		if !sameAgg(whole, want) {
			t.Fatalf("AddColumn %+v, reference %+v", *whole, *want)
		}
		// String extrema must have been copied out of the chunk.
		releaseAndDirty(ch)
		for _, r := range results {
			if !sameAgg(r.got, r.want) {
				t.Fatalf("state changed when the chunk was released: %+v, was %+v", *r.got, *r.want)
			}
		}
	})
}

// releaseAndDirty releases ch and churns the (poisoned) pool, so that anything
// still referencing the chunk's buffer reads as garbage.
func releaseAndDirty(ch *lpq.Chunk) {
	ch.Release()
	for i := 0; i < 4; i++ {
		b := bufpool.GetLen(64 << 10)
		for j := range b {
			b[j] = 0xAA
		}
		bufpool.Put(b)
	}
}

// samePartials compares two sorted partial lists field for field.
func samePartials(a, b []GroupPartial) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d groups vs %d", len(a), len(b))
	}
	for i := range a {
		if CompareKeys(a[i].Key, b[i].Key) != 0 || len(a[i].Key) != len(b[i].Key) {
			return fmt.Errorf("group %d: key %v vs %v", i, a[i].Key, b[i].Key)
		}
		for k := range a[i].Key {
			if a[i].Key[k].Kind != b[i].Key[k].Kind ||
				math.Float64bits(a[i].Key[k].F) != math.Float64bits(b[i].Key[k].F) {
				return fmt.Errorf("group %d: key %v vs %v", i, a[i].Key, b[i].Key)
			}
		}
		if a[i].Rows != b[i].Rows || len(a[i].Aggs) != len(b[i].Aggs) {
			return fmt.Errorf("group %v: %d rows vs %d", a[i].Key, a[i].Rows, b[i].Rows)
		}
		for ai := range a[i].Aggs {
			if !sameAgg(&a[i].Aggs[ai], &b[i].Aggs[ai]) {
				return fmt.Errorf("group %v aggregate %d: %+v vs %+v", a[i].Key, ai, a[i].Aggs[ai], b[i].Aggs[ai])
			}
		}
	}
	return nil
}

// TestAddChunksMatchesReference: the group-by kernel against AddRows over
// decoded columns. The key column runs through the chunk matrix — so the
// code-slot path (a lone dictionary key) and the key-bytes map (plain keys,
// and two-column keys below) both run — with SUM, MIN, COUNT(*) and a second
// aggregate sharing a column; every GroupPartial field is compared bit for
// bit, in sorted order.
func TestAddChunksMatchesReference(t *testing.T) {
	kinds := []AggKind{AggSum, AggMin, AggCount, AggAvg}
	forEachChunkCase(t, func(t *testing.T, rng *rand.Rand, key lpq.ColumnData, opts lpq.WriterOptions) {
		rows := key.Len()
		num := genColumn(rng, lpq.Float64, shapePlain, rows, 0)
		str := genColumn(rng, lpq.String, shapePacked, rows, 11)
		key2 := genColumn(rng, lpq.Int64, shapePacked, rows, 3)
		cols := []lpq.ColumnData{key, num, str, key2}
		chunks := openColumns(t, opts, cols)
		key, num, str, key2 = cols[0], cols[1], cols[2], cols[3]
		type pair struct{ got, want []GroupPartial }
		var results []pair
		for name, sel := range testSelections(rng, rows) {
			for _, twoKeys := range []bool{false, true} {
				keyCols, keyChunks := []lpq.ColumnData{key}, chunks[:1]
				if twoKeys {
					keyCols, keyChunks = []lpq.ColumnData{key, key2}, []*lpq.Chunk{chunks[0], chunks[3]}
				}
				want := NewGroupTable(kinds, 0)
				if err := want.AddRows(keyCols, []lpq.ColumnData{num, str, {}, num}, orFull(sel, rows)); err != nil {
					t.Fatal(err)
				}
				got := NewGroupTable(kinds, 0)
				if err := got.AddChunks(keyChunks, []*lpq.Chunk{chunks[1], chunks[2], nil, chunks[1]}, sel); err != nil {
					t.Fatalf("selection %s: %v", name, err)
				}
				if err := samePartials(got.Sorted(), want.Sorted()); err != nil {
					t.Fatalf("selection %s, two keys %v: kernel vs reference: %v", name, twoKeys, err)
				}
				results = append(results, pair{got.Sorted(), want.Sorted()})
			}
		}
		// The cardinality cap trips on the same input for both.
		if groups := countGroups(key); groups > 1 {
			capped := NewGroupTable(kinds, groups-1)
			err := capped.AddChunks(chunks[:1], []*lpq.Chunk{chunks[1], chunks[2], nil, chunks[1]}, nil)
			if err != ErrTooManyGroups {
				t.Fatalf("cap of %d on %d groups: %v", groups-1, groups, err)
			}
		}
		// Keys and string extrema must have been copied out of the chunks.
		for _, ch := range chunks {
			releaseAndDirty(ch)
		}
		for _, r := range results {
			if err := samePartials(r.got, r.want); err != nil {
				t.Fatalf("partials changed when the chunks were released: %v", err)
			}
		}
	})
}

func countGroups(col lpq.ColumnData) int {
	seen := make(map[string]bool)
	for i := 0; i < col.Len(); i++ {
		seen[string(appendGroupKey(nil, []lpq.ColumnData{col}, i))] = true
	}
	return len(seen)
}

// sameTopRows compares two ranked lists row for row, in order.
func sameTopRows(a, b []TopRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].RG != b[i].RG || a[i].Row != b[i].Row || a[i].Key.Kind != b[i].Key.Kind ||
			a[i].Key.I != b[i].Key.I || a[i].Key.S != b[i].Key.S ||
			math.Float64bits(a[i].Key.F) != math.Float64bits(b[i].Key.F) {
			return false
		}
	}
	return true
}

// firstDiff describes where two ranked lists part.
func firstDiff(got, want []TopRow) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if !sameTopRows(got[i:i+1], want[i:i+1]) {
			return fmt.Sprintf("rank %d is %v, want %v (of %d and %d rows)", i, got[i], want[i], len(got), len(want))
		}
	}
	return fmt.Sprintf("%d rows, want %d", len(got), len(want))
}

// allRows boxes the selected rows of a decoded column as candidates.
func allRows(col lpq.ColumnData, sel *bitmap.Bitmap, rg int32) []TopRow {
	var out []TopRow
	sel.ForEach(func(i int) {
		var key Literal
		switch col.Type {
		case lpq.Int64:
			key = IntLit(col.Ints[i])
		case lpq.Float64:
			key = FloatLit(col.Floats[i])
		default:
			key = StringLit(col.Strings[i])
		}
		out = append(out, TopRow{Key: key, RG: rg, Row: int32(i)})
	})
	return out
}

// TestPushChunkMatchesReference: the top-k kernel against keeping every row
// and sorting, rows compared in order: over the chunk matrix (whose low
// cardinality columns are mostly ties, NaN and the two zeros among them) x
// every selection x both directions x k below, at and above the row count and
// unbounded.
func TestPushChunkMatchesReference(t *testing.T) {
	forEachChunkCase(t, func(t *testing.T, rng *rand.Rand, col lpq.ColumnData, opts lpq.WriterOptions) {
		ch, col := openColumn(t, opts, col)
		type pair struct{ got, want []TopRow }
		var held []pair
		for name, sel := range testSelections(rng, col.Len()) {
			cands := allRows(col, orFull(sel, col.Len()), 7)
			for _, desc := range []bool{false, true} {
				for _, k := range []int{1, 10, len(cands), len(cands) + 5, 0} {
					tk := NewTopK(k, desc)
					if err := tk.PushChunk(ch, sel, 7); err != nil {
						t.Fatalf("selection %s: %v", name, err)
					}
					got, want := tk.Rows(), referenceTopK(k, desc, cands)
					if !sameTopRows(got, want) {
						t.Fatalf("selection %s desc=%v k=%d: %s", name, desc, k, firstDiff(got, want))
					}
					held = append(held, pair{got, want})
				}
			}
		}
		// A placed row's key must have been copied out of the chunk.
		releaseAndDirty(ch)
		for _, h := range held {
			if !sameTopRows(h.got, h.want) {
				t.Fatalf("rows changed when the chunk was released: %s", firstDiff(h.got, h.want))
			}
		}
	})
}

// TestTopKTiesAcrossRowGroups: equal keys resolve by (row group, row) however
// the candidates arrive — chunk by chunk in any row-group order, merged from
// per-row-group accumulators, or pushed one at a time in random order — and
// always to what sorting everything gives.
func TestTopKTiesAcrossRowGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const rgs, rows = 5, 400
	cols := make([]lpq.ColumnData, rgs)
	chunks := make([]*lpq.Chunk, rgs)
	var cands []TopRow
	for rg := range cols {
		cols[rg] = genColumn(rng, lpq.Float64, shapePacked, rows, 4) // four values: all ties
		chunks[rg], cols[rg] = openColumn(t, lpq.DefaultWriterOptions(), cols[rg])
		defer chunks[rg].Release()
		cands = append(cands, allRows(cols[rg], bitmap.NewFull(rows), int32(rg))...)
	}
	for _, desc := range []bool{false, true} {
		for _, k := range []int{1, 3, 50, rows + 7, rgs*rows + 1} {
			want := referenceTopK(k, desc, cands)
			// Whole chunks, row groups in random order.
			direct := NewTopK(k, desc)
			for _, rg := range rng.Perm(rgs) {
				if err := direct.PushChunk(chunks[rg], nil, int32(rg)); err != nil {
					t.Fatal(err)
				}
			}
			// Per-row-group accumulators merged in random order: the
			// node/coordinator split.
			merged := NewTopK(k, desc)
			for _, rg := range rng.Perm(rgs) {
				part := NewTopK(k, desc)
				if err := part.PushChunk(chunks[rg], nil, int32(rg)); err != nil {
					t.Fatal(err)
				}
				merged.Merge(part.Rows())
			}
			// One row at a time, shuffled.
			shuffled := NewTopK(k, desc)
			for _, i := range rng.Perm(len(cands)) {
				shuffled.Push(cands[i].Key, cands[i].RG, cands[i].Row)
			}
			for name, tk := range map[string]*TopK{"chunks": direct, "merged": merged, "shuffled": shuffled} {
				if got := tk.Rows(); !sameTopRows(got, want) {
					t.Fatalf("desc=%v k=%d %s: %s", desc, k, name, firstDiff(got, want))
				}
				// Rows does not disturb the accumulator: asking twice, or
				// pushing a loser in between, changes nothing.
				tk.Push(want[len(want)-1].Key, math.MaxInt32, math.MaxInt32)
				if k < len(cands) && !sameTopRows(tk.Rows(), want) {
					t.Fatalf("desc=%v k=%d %s: a losing row changed the result", desc, k, name)
				}
			}
		}
	}
}

// TestFullSelectionScansAsNil: a selection of every row is no selection. Over
// the chunk matrix — plain ints, floats and strings, dictionary codes bit-packed
// and run-length, frame-of-reference, decimal with escapes, FSST — a full bitmap
// gives the same Scanner batches, row numbers and values as nil, and the same
// result from every kernel that scans.
func TestFullSelectionScansAsNil(t *testing.T) {
	forEachChunkCase(t, func(t *testing.T, rng *rand.Rand, col lpq.ColumnData, opts lpq.WriterOptions) {
		ch, col := openColumn(t, opts, col)
		defer ch.Release()
		full := bitmap.NewFull(col.Len())
		var none, all lpq.Scanner
		if err := ch.Scan(&none, nil); err != nil {
			t.Fatal(err)
		}
		if err := ch.Scan(&all, full); err != nil {
			t.Fatal(err)
		}
		_, isDict := ch.Dict()
		plainStrings := ch.Type() == lpq.String && !isDict // plain or FSST: values through Bytes
		for batch := 0; ; batch++ {
			more := none.Next()
			if all.Next() != more {
				t.Fatalf("batch %d: the scans end apart", batch)
			}
			if !more {
				break
			}
			if none.Len() != all.Len() {
				t.Fatalf("batch %d: %d rows under nil, %d under the full bitmap", batch, none.Len(), all.Len())
			}
			for i := 0; i < none.Len(); i++ {
				if none.Row(i) != all.Row(i) || (plainStrings && !bytes.Equal(none.Bytes(i), all.Bytes(i))) {
					t.Fatalf("batch %d element %d: row %d under nil, %d under the full bitmap", batch, i, none.Row(i), all.Row(i))
				}
			}
			if !reflect.DeepEqual(none.Codes(), all.Codes()) || !reflect.DeepEqual(none.Ints(), all.Ints()) ||
				!bytes.Equal(colenc.PutFloat64s(nil, none.Floats()), colenc.PutFloat64s(nil, all.Floats())) {
				t.Fatalf("batch %d: values differ", batch)
			}
		}
		if none.Err() != nil || all.Err() != nil {
			t.Fatalf("scan errors: %v under nil, %v under the full bitmap", none.Err(), all.Err())
		}
		plain := func(sel *bitmap.Bitmap) []byte {
			gathered, err := ch.Gather(sel)
			if err != nil {
				t.Fatal(err)
			}
			out := append(colenc.PutInt64s(nil, gathered.Ints), colenc.PutFloat64s(nil, gathered.Floats)...)
			out = append(out, colenc.PutStrings(nil, gathered.Strings)...)
			selected, err := ch.AppendSelected(nil, sel)
			if err != nil {
				t.Fatal(err)
			}
			return append(out, selected...)
		}
		if !bytes.Equal(plain(nil), plain(full)) {
			t.Fatal("Gather or AppendSelected differs under the full bitmap")
		}
		var aggs [2]*AggState
		desc := rng.Intn(2) == 0
		tops := [2]*TopK{NewTopK(10, desc), NewTopK(10, desc)}
		groups := [2]*GroupTable{NewGroupTable([]AggKind{AggMin, AggCount}, 0), NewGroupTable([]AggKind{AggMin, AggCount}, 0)}
		for i, sel := range []*bitmap.Bitmap{nil, full} {
			var err error
			if aggs[i], err = keyless(ch, sel); err != nil {
				t.Fatal(err)
			}
			if err := tops[i].PushChunk(ch, sel, 0); err != nil {
				t.Fatal(err)
			}
			if err := groups[i].AddChunks([]*lpq.Chunk{ch}, []*lpq.Chunk{ch, nil}, sel); err != nil {
				t.Fatal(err)
			}
		}
		if !sameAgg(aggs[0], aggs[1]) {
			t.Fatalf("keyless AddChunks: %+v under nil, %+v under the full bitmap", *aggs[0], *aggs[1])
		}
		if got, want := tops[1].Rows(), tops[0].Rows(); !sameTopRows(got, want) {
			t.Fatalf("PushChunk under the full bitmap: %s", firstDiff(got, want))
		}
		if err := samePartials(groups[1].Sorted(), groups[0].Sorted()); err != nil {
			t.Fatalf("AddChunks under the full bitmap: %v", err)
		}
	})
}

// TestKernelsRejectMismatchedSelection: a selection of the wrong length is an
// error from every kernel, not an out-of-range read.
func TestKernelsRejectMismatchedSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	col := genColumn(rng, lpq.Int64, shapePacked, 100, 5)
	other := genColumn(rng, lpq.Int64, shapePacked, 90, 5)
	ch, _ := openColumn(t, lpq.DefaultWriterOptions(), col)
	short, _ := openColumn(t, lpq.DefaultWriterOptions(), other)
	defer ch.Release()
	defer short.Release()
	wrong := bitmap.NewFull(99)
	if _, err := keyless(ch, wrong); err == nil {
		t.Error("keyless AddChunks accepted a 99-row selection over 100 rows")
	}
	if err := NewTopK(3, false).PushChunk(ch, wrong, 0); err == nil {
		t.Error("PushChunk accepted a 99-row selection over 100 rows")
	}
	g := NewGroupTable([]AggKind{AggSum}, 0)
	if err := g.AddChunks([]*lpq.Chunk{ch}, []*lpq.Chunk{ch}, wrong); err == nil {
		t.Error("AddChunks accepted a 99-row selection over 100 rows")
	}
	if err := g.AddChunks([]*lpq.Chunk{ch}, []*lpq.Chunk{short}, nil); err == nil {
		t.Error("AddChunks accepted columns of 100 and 90 rows")
	}
	if err := NewGroupTable([]AggKind{AggCount}, 0).AddChunks(nil, []*lpq.Chunk{nil}, nil); err == nil {
		t.Error("AddChunks accepted a fold that reads no column")
	}
	if err := g.AddChunks([]*lpq.Chunk{ch}, nil, nil); err == nil {
		t.Error("AddChunks accepted fewer argument columns than aggregates")
	}
}

// TestPushChunkBoxesOnlyRowsThatPlace: once k rows are held, a row that
// cannot place costs a typed compare and no allocation — over a plain and an
// FSST string chunk, where boxing a row copies its bytes.
func TestPushChunkBoxesOnlyRowsThatPlace(t *testing.T) {
	rows := 5000
	text := genText(rand.New(rand.NewSource(6)), rows).Strings
	// 32 bytes, and 43 — l_comment's longest — past the 32 a string
	// conversion can keep off the heap.
	for _, long := range []int{21, 32} {
		col := lpq.ColumnData{Type: lpq.String}
		for i, s := range text {
			col.Strings = append(col.Strings, fmt.Sprintf("key-%06d-%-*.*s", i, long, long, s))
		}
		for _, shape := range []codeShape{shapePlain, shapeFrame} {
			ch, _ := openColumn(t, writerOpts(shape, true, 20000), col)
			defer ch.Release()
			if ch.Encoding() != shape.wantEncoding(lpq.String) {
				t.Fatalf("the writer made a %v chunk, the case is about %v", ch.Encoding(), shape.wantEncoding(lpq.String))
			}
			// Ascending keys, ascending order: after the first ten, nothing places.
			allocs := testing.AllocsPerRun(5, func() {
				tk := NewTopK(10, false)
				if err := tk.PushChunk(ch, nil, 0); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 40 {
				t.Fatalf("%v, %d-byte keys: top-10 of %d ascending strings allocated %.0f times, want a few per placed row", ch.Encoding(), len(col.Strings[0]), rows, allocs)
			}
		}
	}
}
