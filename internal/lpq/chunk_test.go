package lpq

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/bufpool"
	"github.com/fusionstore/fusion/internal/colenc"
	"github.com/fusionstore/fusion/internal/snappy"
)

// codeShape is how a generated column's values repeat, which decides the
// encoding the writer picks for its pages.
type codeShape int

const (
	shapePlain   codeShape = iota // all but unique: plain pages
	shapePacked                   // few values in random order: dictionary, bit-packed codes
	shapeRuns                     // few values in long runs: dictionary, run-length codes
	shapeMixed                    // runs then noise: a dictionary chunk with both kinds of page
	shapeFrame                    // all but unique in a narrow range: frame-of-reference ints in random order (offset pages), decimal floats a third of them an ulp off (corrections)
	shapeText                     // comment-like strings, all but unique, some bytes no symbol covers: FSST; numbers as in frame
	shapeEscapes                  // decimal floats as in frame, a fifth of them besides two ulps off or random bits (escapes); ints and strings as in frame
	shapeSorted                   // ints only: ascending in steps of 0 or 1, as l_orderkey: frame-of-reference delta pages
	numShapes
)

func (s codeShape) String() string {
	return [...]string{"plain", "packed", "runs", "mixed", "frame", "text", "escapes", "sorted"}[s]
}

// shapesOf returns the shapes a column of type t is drawn in: every one but
// shapeSorted, which is for ints only.
func shapesOf(t Type) []codeShape {
	var out []codeShape
	for s := shapePlain; s < numShapes; s++ {
		if s != shapeSorted || t == Int64 {
			out = append(out, s)
		}
	}
	return out
}

// genColumn draws rows values of type t in the given shape. Floats include
// NaN, both zeros and infinities; strings include the empty string and one
// whose length prefix takes two bytes.
func genColumn(rng *rand.Rand, t Type, shape codeShape, rows int) ColumnData {
	if shape == shapeText && t == String {
		return genText(rng, rows)
	}
	domain := 37
	pick := func(i int) int {
		switch shape {
		case shapePlain, shapeFrame, shapeText, shapeEscapes:
			return i
		case shapeRuns:
			return i * 5 / rows
		case shapeMixed:
			if i < rows/2 {
				return i * 6 / rows
			}
		}
		return rng.Intn(domain)
	}
	// The float dictionary tells values apart by bit pattern: both zeros keep
	// their sign, and the NaNs share one entry, so a run of them is a run of
	// codes.
	floats := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), -1.5, 1e300, math.NaN()}
	long := string(bytes.Repeat([]byte("x"), 200))
	col := ColumnData{Type: t}
	// Framed ints are shuffled, so that their steps span more bits than
	// their offsets; sorted ones climb from near 2^40.
	var perm []int
	if t == Int64 && (shape == shapeFrame || shape == shapeText || shape == shapeEscapes) {
		perm = rng.Perm(rows)
	}
	key := int64(1)<<40 + 3
	for i := 0; i < rows; i++ {
		v := pick(i)
		switch {
		case t == Int64 && shape == shapeSorted:
			if rng.Intn(4) == 0 {
				key++
			}
			col.Ints = append(col.Ints, key)
		case t == Int64 && perm != nil:
			col.Ints = append(col.Ints, int64(perm[i])*1_000_003-7)
		case t == Int64:
			col.Ints = append(col.Ints, int64(v)*1_000_003-7)
		case t == Float64:
			f := float64(v)*1.25 - 3 // hundredths, exactly
			framed := shape == shapeFrame || shape == shapeText || shape == shapeEscapes
			switch {
			case v < len(floats):
				f = floats[v]
			case shape == shapeEscapes && v%10 == 1:
				f = math.Float64frombits(math.Float64bits(f) + 2) // two ulps off: an escape
			case shape == shapeEscapes && v%10 == 2:
				f = math.Float64frombits(rng.Uint64()) // random bits: an escape but by chance
			case framed && v%6 == 0:
				f = math.Nextafter(f, 0) // an ulp toward zero: a correction
			case framed && v%6 == 3:
				f = math.Nextafter(f, math.Copysign(math.Inf(1), f)) // an ulp away from it
			}
			col.Floats = append(col.Floats, f)
		default:
			s := fmt.Sprintf("v%05d", v)
			switch v {
			case 1:
				s = ""
			case 2:
				s = long
			}
			col.Strings = append(col.Strings, s)
		}
	}
	return col
}

// textWords is the vocabulary of the text shape.
var textWords = strings.Fields("furiously quickly carefully blithely slyly express pending regular " +
	"special ironic final bold even accounts deposits packages requests instructions " +
	"theodolites foxes pinto beans dependencies asymptotes sleep nag haggle wake")

// genText draws rows comment-like strings of 10 to 43 bytes, all but unique.
// Every seventh carries a byte no text has, which the symbol table cannot
// cover; row 1 is empty, row 2 is 200 bytes (its decoded length prefix takes
// two bytes) and row 3 is 1,200 bytes whose code string's length prefix
// takes two bytes too.
func genText(rng *rand.Rand, rows int) ColumnData {
	col := ColumnData{Type: String, Strings: make([]string, rows)}
	for i := range col.Strings {
		s := textWords[rng.Intn(len(textWords))]
		for len(s) < 10+rng.Intn(34) {
			s += " " + textWords[rng.Intn(len(textWords))]
		}
		switch {
		case i == 1:
			s = ""
		case i == 2:
			s = strings.Repeat("x", 200)
		case i == 3:
			s = strings.Repeat(string(rune('a'+rng.Intn(26)))+"q\x01", 400)
		case i%7 == 0:
			s += string([]byte{0xF0 | byte(rng.Intn(16)), byte(rng.Intn(32))})
		}
		col.Strings[i] = s
	}
	return col
}

// encodeTestChunk encodes col as the writer would and returns what a node
// holds of it: type, metadata and bytes.
func encodeTestChunk(col ColumnData, shape codeShape, compress bool, pageRows int) (ChunkMeta, []byte) {
	opts := WriterOptions{Compress: compress, DisableDict: shape == shapePlain, PageRows: pageRows}
	return encodeChunk(col, opts)
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
	// Every row from a quarter to two thirds of the way: a dense run, across
	// a page boundary where the chunk has several pages.
	run := bitmap.New(rows)
	run.SetRange(rows/4, max(2*rows/3, rows/4+1))
	return map[string]*bitmap.Bitmap{
		"nil": nil, "empty": bitmap.New(rows), "full": bitmap.NewFull(rows),
		"one": one, "1%": sparse, "50%": half, "all but the first": butFirst, "all but the last": butLast,
		"dense run": run,
	}
}

// sameColumn compares two columns value for value, floats by their bits (NaN
// equals NaN, the zeros differ) and ignoring nil-versus-empty.
func sameColumn(a, b ColumnData) bool {
	if a.Type != b.Type || a.Len() != b.Len() {
		return false
	}
	for i := range a.Floats {
		if math.Float64bits(a.Floats[i]) != math.Float64bits(b.Floats[i]) {
			return false
		}
	}
	return a.Len() == 0 || (reflect.DeepEqual(a.Ints, b.Ints) && reflect.DeepEqual(a.Strings, b.Strings))
}

func plainBytes(col ColumnData) []byte {
	switch col.Type {
	case Int64:
		return colenc.PutInt64s(nil, col.Ints)
	case Float64:
		return colenc.PutFloat64s(nil, col.Floats)
	default:
		return colenc.PutStrings(nil, col.Strings)
	}
}

// referenceCodes returns the dictionary code of every row of a dictionary
// chunk, decoded page by page.
func referenceCodes(t Type, m ChunkMeta, raw []byte) ([]uint64, error) {
	blob := raw
	if m.Compressed {
		var err error
		if blob, err = snappy.Decode(raw); err != nil {
			return nil, err
		}
	}
	d := &decBuf{b: blob[1:]}
	dictLen := int(d.uvarint())
	if t == String {
		for i := 0; i < dictLen; i++ {
			d.str()
		}
	} else {
		d.b = d.b[8*dictLen:]
	}
	return referenceCodePages(d, m.NumValues, uint64(max(dictLen, 1)-1))
}

// TestChunkKernelsMatchReference is the equivalence matrix for the kernels in
// this package: {Int64, Float64, String} x {plain, bit-packed, run-length,
// mixed code pages, frame-of-reference / decimal pages} x {Snappy on, off} x
// {one page, several pages with a short last one, one row} x {no selection,
// empty, full, one bit, 1%, 50%}. Gather, AppendSelected, the Scanner's
// batches, SelectCodes and SelectInts must agree with decoding the whole chunk
// page by page and picking values one at a time.
func TestChunkKernelsMatchReference(t *testing.T) {
	prev := bufpool.SetPoison(true)
	defer bufpool.SetPoison(prev)
	for _, typ := range []Type{Int64, Float64, String} {
		for _, shape := range shapesOf(typ) {
			for _, compress := range []bool{true, false} {
				for _, lay := range kernelLayouts {
					t.Run(lay.caseName(typ, shape, compress), func(t *testing.T) {
						rng, _, m, raw := matrixChunk(typ, shape, compress, lay)
						checkChunkKernels(t, rng, typ, m, raw, shape, lay.rows > 1)
					})
				}
			}
		}
	}
}

// kernelLayout is a chunk length and page length of the kernel matrix.
type kernelLayout struct {
	name           string
	rows, pageRows int
}

// kernelLayouts are one page, several with a short last one, and one row.
var kernelLayouts = []kernelLayout{{"one-page", 1000, 20000}, {"short-last-page", 1000, 300}, {"one-row", 1, 20000}}

func (lay kernelLayout) caseName(typ Type, shape codeShape, compress bool) string {
	return fmt.Sprintf("%v/%v/snappy=%v/%s", typ, shape, compress, lay.name)
}

// matrixChunk returns the kernel matrix's case of typ, shape, Snappy and
// layout: its random source, the column it draws and the chunk the writer
// makes of it.
func matrixChunk(typ Type, shape codeShape, compress bool, lay kernelLayout) (*rand.Rand, ColumnData, ChunkMeta, []byte) {
	rng := rand.New(rand.NewSource(int64(len(lay.caseName(typ, shape, compress)))*7919 + int64(lay.rows)))
	col := genColumn(rng, typ, shape, lay.rows)
	m, raw := encodeTestChunk(col, shape, compress, lay.pageRows)
	return rng, col, m, raw
}

// TestEveryPageKindCovered walks the kind table. Every kind must be one that
// the kernel matrix (TestChunkKernelsMatchReference) writes as a chunk of
// several pages, that the reference decoder reads, and that FuzzOpenChunk's
// seeds hold a malformed chunk of: a kind added to the table fails here until
// each of them covers it.
func TestEveryPageKindCovered(t *testing.T) {
	seeds := openChunkSeeds()
	for i, kind := range kinds {
		if kind == nil {
			continue
		}
		enc := colenc.Encoding(i)
		t.Run(enc.String(), func(t *testing.T) {
			matrix := false
			for _, typ := range []Type{Int64, Float64, String} {
				for _, shape := range shapesOf(typ) {
					for _, lay := range kernelLayouts {
						_, col, m, raw := matrixChunk(typ, shape, false, lay)
						if m.Encoding != enc {
							continue
						}
						if c, err := OpenChunk(typ, m, raw); err != nil || len(c.pages) < 2 {
							continue
						}
						if got, err := referenceDecodeBlob(typ, raw, m.NumValues); err != nil || !sameColumn(got, col) {
							t.Fatalf("%s: the reference decoder reads the chunk otherwise (%v)", lay.caseName(typ, shape, false), err)
						}
						matrix = true
					}
				}
			}
			if !matrix {
				t.Errorf("the kernel matrix writes no chunk of several %v pages", enc)
			}
			malformed := slices.ContainsFunc(malformedChunks(), func(m malformedChunk) bool {
				_, err := referenceDecodeReply(m.typ, m.raw, m.rows)
				return err != nil && len(m.raw) > 0 && colenc.Encoding(m.raw[0]) == enc &&
					slices.ContainsFunc(seeds, func(s fuzzChunk) bool { return bytes.Equal(s.raw, m.raw) })
			})
			if !malformed {
				t.Errorf("FuzzOpenChunk's seeds hold no hand-assembled malformed %v chunk", enc)
			}
		})
	}
}

// checkReply writes the projection reply of a selection behind a prefix and
// opens it: it must be in the chunk's encoding, gather to the selected values,
// decode to them under the reference decoder, and open for its own row count
// only. A dictionary reply holds no more entries than it has rows.
func checkReply(t *testing.T, c *Chunk, sel *bitmap.Bitmap, ref ColumnData, name string) {
	t.Helper()
	out, err := c.AppendSelected([]byte("hdr"), sel)
	if err != nil || !bytes.HasPrefix(out, []byte("hdr")) || len(out) < 4 {
		t.Fatalf("selection %s: AppendSelected: %v", name, err)
	}
	body := out[3:]
	if enc := colenc.Encoding(body[0]); enc != c.enc {
		t.Fatalf("selection %s: a %v chunk replied in %v", name, c.enc, enc)
	}
	r, err := OpenReply(c.typ, ref.Len(), body)
	if err != nil {
		t.Fatalf("selection %s: OpenReply: %v", name, err)
	}
	if got, err := r.Gather(nil); err != nil || !sameColumn(got, ref) {
		t.Fatalf("selection %s: the reply gathers to other values than the reference's (%v)", name, err)
	}
	if got, err := referenceDecodeReply(c.typ, body, ref.Len()); err != nil || !sameColumn(got, ref) {
		t.Fatalf("selection %s: the reference decoder reads the reply otherwise (%v)", name, err)
	}
	if dict, ok := r.Dict(); ok && dict.Len() > max(ref.Len(), 0) {
		t.Fatalf("selection %s: a reply of %d rows carries %d dictionary entries", name, ref.Len(), dict.Len())
	}
	for _, rows := range []int{ref.Len() + 1, ref.Len() - 1} {
		if _, err := OpenReply(c.typ, rows, body); err == nil && rows >= 0 {
			t.Fatalf("selection %s: a reply of %d rows opened as %d", name, ref.Len(), rows)
		}
	}
}

// checkGatherWindow gathers a selection the way a query fills a result column:
// appended to a zero-length window, capacity-clipped to the selected rows, that
// starts at row 3 of a longer column. The values must land in the column's own
// memory and the rows on either side of the window keep what they held.
func checkGatherWindow(t *testing.T, c *Chunk, sel *bitmap.Bitmap, ref ColumnData, name string) {
	t.Helper()
	const before, after = 3, 2
	n := ref.Len()
	dst := ColumnData{Type: c.Type()}
	var inPlace func() ColumnData // rows [before, before+n) of the column
	var intact func() bool        // the rows around them still hold the sentinel
	switch c.Type() {
	case Int64:
		col := filled(before+n+after, int64(-77))
		dst.Ints = col[before : before : before+n]
		inPlace = func() ColumnData { return IntColumn(col[before : before+n]) }
		intact = func() bool { return allAre(col[:before], -77) && allAre(col[before+n:], -77) }
	case Float64:
		col := filled(before+n+after, float64(-77))
		dst.Floats = col[before : before : before+n]
		inPlace = func() ColumnData { return FloatColumn(col[before : before+n]) }
		intact = func() bool { return allAre(col[:before], -77) && allAre(col[before+n:], -77) }
	default:
		col := filled(before+n+after, "sentinel")
		dst.Strings = col[before : before : before+n]
		inPlace = func() ColumnData { return StringColumn(col[before : before+n]) }
		intact = func() bool { return allAre(col[:before], "sentinel") && allAre(col[before+n:], "sentinel") }
	}
	got, err := c.AppendGather(dst, sel)
	if err != nil || !sameColumn(got, ref) {
		t.Fatalf("selection %s: AppendGather into a window differs from the reference (%v)", name, err)
	}
	if !sameColumn(inPlace(), ref) {
		t.Fatalf("selection %s: AppendGather did not fill the window it was given", name)
	}
	if !intact() {
		t.Fatalf("selection %s: AppendGather wrote outside its window", name)
	}
	if _, err := c.AppendGather(ColumnData{Type: (c.Type() + 1) % 3}, sel); err == nil {
		t.Fatalf("selection %s: AppendGather filled a column of another type", name)
	}
}

func filled[T any](n int, v T) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func allAre[T comparable](s []T, v T) bool {
	for _, x := range s {
		if x != v {
			return false
		}
	}
	return true
}

func checkChunkKernels(t *testing.T, rng *rand.Rand, typ Type, m ChunkMeta, raw []byte, shape codeShape, checkShape bool) {
	want, err := referenceDecodeChunk(typ, m, raw)
	if err != nil {
		t.Fatalf("reference decoder: %v", err)
	}
	c, err := OpenChunk(typ, m, raw)
	if err != nil {
		t.Fatalf("OpenChunk: %v", err)
	}
	if c.NumRows() != m.NumValues || c.Type() != typ {
		t.Fatalf("opened as %v x %d, want %v x %d", c.Type(), c.NumRows(), typ, m.NumValues)
	}
	if checkShape && !(shape == shapeMixed && len(c.pages) == 1) {
		// The generator must have hit the encoding the case is named for
		// (one page cannot mix two).
		var rle, packed bool
		for _, p := range c.pages {
			rle, packed = rle || p.rle, packed || (c.enc == colenc.Dict && !p.rle)
		}
		frame := [...]colenc.Encoding{Int64: colenc.FOR, Float64: colenc.Decimal, String: colenc.FSST}[typ]
		delta, pages := c.DeltaPages()
		offsets := c.enc == frame && (typ != Int64 || delta == 0)
		got := [...]bool{c.enc == colenc.Plain, packed && !rle, rle && !packed, rle && packed, offsets, offsets, offsets,
			c.enc == colenc.FOR && delta == pages}[shape]
		if !got {
			t.Fatalf("chunk is %v rle=%v packed=%v with %d of %d pages deltas, not shape %v", c.enc, rle, packed, delta, pages, shape)
		}
		if c.enc == colenc.Decimal {
			// A third of the rows are an ulp off, half of them either way:
			// corrections. Only the specials escape, and in the escapes
			// shape a fifth of the rows besides.
			var corr [4]int
			for _, p := range c.pages {
				for r := 0; r < p.rows && p.corr != 0; r++ {
					corr[packedCode(c.blob[p.off:p.end], p.width, r)&3]++
				}
			}
			lo, hi := 0, 7
			if shape == shapeEscapes {
				lo, hi = c.rows/8, c.rows/3
			}
			if corr[corrUp] < c.rows/9 || corr[corrDown] < c.rows/9 || corr[corrEscape] < lo || corr[corrEscape] > hi {
				t.Fatalf("decimal chunk of %d rows has %d rows an ulp up, %d down and %d escapes", c.rows, corr[corrUp], corr[corrDown], corr[corrEscape])
			}
		}
	}
	if all, err := DecodeChunk(typ, m, raw); err != nil || !sameColumn(all, want) {
		t.Fatalf("DecodeChunk differs from the reference decoder (%v)", err)
	}
	for name, sel := range testSelections(rng, m.NumValues) {
		picked := sel
		if picked == nil {
			picked = bitmap.NewFull(m.NumValues)
		}
		ref := referenceSelect(want, picked)
		got, err := c.Gather(sel)
		if err != nil || !sameColumn(got, ref) {
			t.Fatalf("selection %s: Gather differs from the reference (%v)", name, err)
		}
		checkGatherWindow(t, c, sel, ref, name)
		checkReply(t, c, sel, ref, name)
		checkScanner(t, c, sel, picked, ref, name)
	}
	if dict, ok := c.Dict(); ok {
		codes, err := referenceCodes(typ, m, raw)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			verdict := bitmap.New(dict.Len())
			for i := 0; i < dict.Len(); i++ {
				if trial == 3 || (trial > 0 && rng.Intn(trial+1) == 0) {
					verdict.Set(i)
				}
			}
			got, err := c.SelectCodes(verdict)
			if err != nil {
				t.Fatalf("SelectCodes: %v", err)
			}
			for r, code := range codes {
				if got.Get(r) != verdict.Get(int(code)) {
					t.Fatalf("SelectCodes trial %d: row %d (code %d) is %v", trial, r, code, got.Get(r))
				}
			}
		}
	}
	if c.enc == colenc.FOR {
		// Bounds drawn from the values (so pages are cut, covered and missed),
		// the extremes of int64, and an empty range.
		bound := func() int64 {
			switch rng.Intn(5) {
			case 0:
				return math.MinInt64
			case 1:
				return math.MaxInt64
			}
			return want.Ints[rng.Intn(len(want.Ints))] + int64(rng.Intn(3)) - 1
		}
		for trial := 0; trial < 60; trial++ {
			lo, hi, outside := bound(), bound(), trial%2 == 0
			got, err := c.SelectInts(lo, hi, outside)
			if err != nil {
				t.Fatalf("SelectInts: %v", err)
			}
			for r, v := range want.Ints {
				if got.Get(r) != ((lo <= v && v <= hi) != outside) {
					t.Fatalf("SelectInts(%d, %d, outside=%v): row %d (value %d) is %v", lo, hi, outside, r, v, got.Get(r))
				}
			}
		}
	} else if _, err := c.SelectInts(0, 1, false); err == nil {
		t.Fatalf("SelectInts ran over a %v chunk", c.enc)
	}
	c.Release()
	// With the pool poisoned, whatever was gathered must have survived the
	// release: nothing a kernel returned may reference the arena.
	if got, err := DecodeChunk(typ, m, raw); err != nil || !sameColumn(got, want) {
		t.Fatalf("DecodeChunk after release differs (%v)", err)
	}
}

// TestSelectCodesWideDictionary: a dictionary too large for a lookup table
// (more than 2^16 entries) takes the Scanner path, on bit-packed and
// run-length pages alike, and catches a code beyond the dictionary there too.
func TestSelectCodesWideDictionary(t *testing.T) {
	const rows, distinct = 300_000, 100_000
	rng := rand.New(rand.NewSource(8))
	col := ColumnData{Type: Int64}
	for i := 0; i < rows; i++ {
		v := int64(rng.Intn(distinct)) << 20 // too wide a span for a frame of reference
		if i >= rows-20000 {
			v = col.Ints[i/5000] // a run-length last page, of values seen before
		}
		col.Ints = append(col.Ints, v)
	}
	m, raw := encodeTestChunk(col, shapePacked, true, 20000)
	c, err := OpenChunk(Int64, m, raw)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	dict, _ := c.Dict()
	if c.width <= maxLUTWidth || !c.pages[len(c.pages)-1].rle || c.pages[0].rle {
		t.Fatalf("width %d, pages %+v: not the wide, mixed chunk this test is about", c.width, c.pages)
	}
	verdict := bitmap.New(dict.Len())
	for i, v := range dict.Ints {
		if v%3 == 0 {
			verdict.Set(i)
		}
	}
	got, err := c.SelectCodes(verdict)
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range col.Ints {
		if got.Get(r) != (v%3 == 0) {
			t.Fatalf("row %d (value %d) is %v", r, v, got.Get(r))
		}
	}
	// The same bytes under a dictionary one entry shorter: some bit-packed
	// code now points past it (the run-length page's do not; those are
	// checked at open, which this shortcut skips).
	short := *c
	short.dict.Ints = dict.Ints[:dict.Len()-1]
	if _, err := short.SelectCodes(bitmap.New(dict.Len() - 1)); err == nil {
		t.Fatal("a code beyond the dictionary went unnoticed")
	}
}

// checkScanner walks the selection batch by batch: the row numbers are the
// selection's, in order, in batches that depend on the selection alone, and
// the batch's codes and values are the reference's.
func checkScanner(t *testing.T, c *Chunk, sel, picked *bitmap.Bitmap, ref ColumnData, name string) {
	var sc Scanner
	if err := c.Scan(&sc, sel); err != nil {
		t.Fatal(err)
	}
	rows := picked.Indexes()
	dict, isDict := c.Dict()
	n := 0
	for sc.Next() {
		if sc.Len() != min(BatchRows, len(rows)-n) {
			t.Fatalf("selection %s: batch of %d rows at %d of %d", name, sc.Len(), n, len(rows))
		}
		for i := 0; i < sc.Len(); i++ {
			r := sc.Row(i)
			if int(r) != rows[n] {
				t.Fatalf("selection %s: scanner row %d, want %d", name, r, rows[n])
			}
			one := ColumnData{Type: c.Type()}
			switch {
			case c.Type() == Int64:
				one.Ints = []int64{sc.Ints()[i]}
			case c.Type() == Float64:
				one.Floats = []float64{sc.Floats()[i]}
			case isDict:
				one.Strings = []string{dict.Strings[sc.Codes()[i]]}
			default:
				one.Strings = []string{string(sc.Bytes(i))}
			}
			if isDict && c.Type() != String {
				fromDict := ColumnData{Type: c.Type()}
				if c.Type() == Int64 {
					fromDict.Ints = []int64{dict.Ints[sc.Codes()[i]]}
				} else {
					fromDict.Floats = []float64{dict.Floats[sc.Codes()[i]]}
				}
				if !sameColumn(one, fromDict) {
					t.Fatalf("selection %s: row %d's code and value disagree", name, r)
				}
			}
			if !sameColumn(one, referenceSelect(ref, oneBit(ref.Len(), n))) {
				t.Fatalf("selection %s: scanner value at row %d differs from the reference", name, r)
			}
			n++
		}
	}
	if err := sc.Err(); err != nil || n != len(rows) {
		t.Fatalf("selection %s: scanner yielded %d of %d rows (%v)", name, n, len(rows), err)
	}
}

func oneBit(n, i int) *bitmap.Bitmap {
	b := bitmap.New(n)
	b.Set(i)
	return b
}

// blobWriter assembles chunk blobs by hand, for the malformed inputs no
// writer produces.
type blobWriter struct{ b []byte }

func (w *blobWriter) bytes(b ...byte) *blobWriter { w.b = append(w.b, b...); return w }
func (w *blobWriter) uvarint(v uint64) *blobWriter {
	w.b = binary.AppendUvarint(w.b, v)
	return w
}
func (w *blobWriter) ints(vals ...int64) *blobWriter {
	w.b = colenc.PutInt64s(w.b, vals)
	return w
}

// metaFor describes blob as an uncompressed chunk of rows rows with a correct
// size and checksum.
func metaFor(blob []byte, rows int) ChunkMeta {
	return ChunkMeta{Size: uint64(len(blob)), NumValues: rows, CRC: crc32.ChecksumIEEE(blob)}
}

// framePage appends one frame-of-reference page: header, then the packed
// offsets as given.
func (w *blobWriter) framePage(rows uint64, base int64, width byte, packed ...byte) *blobWriter {
	return w.uvarint(rows).uvarint(uint64(9 + len(packed))).ints(base).bytes(width).bytes(packed...)
}

// decimalPage appends one decimal page of rows rows over base 100 (at scale
// 100, offset 1 is 1.01) whose offset field is width bits, declaring escapes
// escapes: the packed codes and the raw values as given.
func (w *blobWriter) decimalPage(rows int, width byte, escapes uint64, packed []byte, raw ...float64) *blobWriter {
	body := new(blobWriter).ints(100).bytes(width).uvarint(escapes).bytes(packed...)
	body.b = colenc.PutFloat64s(body.b, raw)
	return w.uvarint(uint64(rows)).uvarint(uint64(len(body.b))).bytes(body.b...)
}

// deltaPage appends one frame-of-reference delta page: header, the minimum
// step's bytes as given (zz encodes one), then the packed deltas as given.
func (w *blobWriter) deltaPage(rows uint64, base int64, width byte, step []byte, packed ...byte) *blobWriter {
	return w.uvarint(rows).uvarint(uint64(9 + len(step) + len(packed))).ints(base).bytes(width | deltaCoded).bytes(step...).bytes(packed...)
}

// zz is the zigzag varint of a delta page's minimum step.
func zz(step int64) []byte { return binary.AppendVarint(nil, step) }

// dcode is the decimal code of an offset and a correction; at a 6-bit offset
// width it is one byte of a page's packed codes.
func dcode(off, corr byte) byte { return off<<2 | corr }

// malformedChunk is a hand-assembled chunk that the format forbids, named by
// what is wrong with it, under metadata that declares rows rows.
type malformedChunk struct {
	name string
	typ  Type
	rows int
	raw  []byte
}

// malformedChunks lists them kind by kind; TestMalformedChunksAreErrors and
// FuzzOpenChunk's seeds share the list.
func malformedChunks() []malformedChunk {
	return slices.Concat(malformedPlainChunks(), malformedDictChunks(), malformedFrameChunks(), malformedFSSTChunks())
}

// malformedPlainChunks lists the plain ones, four rows each.
func malformedPlainChunks() []malformedChunk {
	plain := func() *blobWriter { return new(blobWriter).bytes(byte(colenc.Plain)) }
	return []malformedChunk{
		{"more pages than rows", Int64, 4, plain().uvarint(9).b},
		{"plain numeric page truncated", Int64, 4, plain().uvarint(1).uvarint(4).uvarint(24).ints(1, 2, 3).b},
		{"plain string overruns its page", String, 4,
			plain().uvarint(1).uvarint(4).uvarint(6).bytes(1, 'a', 1, 'b', 1, 'c').bytes(9, 'd').b},
		{"plain string length varint truncated", String, 4,
			plain().uvarint(1).uvarint(4).uvarint(7).bytes(1, 'a', 1, 'b', 1, 'c', 0x80).b},
	}
}

// dictHdr starts an Int64 dictionary chunk of {10, 20, 30}: 2-bit codes.
func dictHdr() *blobWriter {
	return new(blobWriter).bytes(byte(colenc.Dict)).uvarint(3).ints(10, 20, 30)
}

// malformedDictChunks lists the dictionary ones, four rows each.
func malformedDictChunks() []malformedChunk {
	return []malformedChunk{
		{"code beyond the dictionary", Int64, 4, // code 3 of a 3-entry dictionary
			dictHdr().uvarint(1).uvarint(4).bytes(byte(colenc.Plain)).uvarint(1).bytes(0b11_01_00_10).b},
		{"run-length code beyond the dictionary", Int64, 4,
			dictHdr().uvarint(1).uvarint(4).bytes(byte(colenc.RLEEnc)).uvarint(2).uvarint(4).uvarint(3).b},
		{"run overruns its page", Int64, 4,
			dictHdr().uvarint(1).uvarint(4).bytes(byte(colenc.RLEEnc)).uvarint(2).uvarint(5).uvarint(1).b},
		{"runs fall short of the page", Int64, 4,
			dictHdr().uvarint(1).uvarint(4).bytes(byte(colenc.RLEEnc)).uvarint(2).uvarint(3).uvarint(1).b},
		{"zero-length run", Int64, 4,
			dictHdr().uvarint(1).uvarint(4).bytes(byte(colenc.RLEEnc)).uvarint(2).uvarint(0).uvarint(1).b},
		{"unknown code-page encoding", Int64, 4,
			dictHdr().uvarint(1).uvarint(4).bytes(9).uvarint(1).bytes(0).b},
		{"bit-packed page truncated", Int64, 4, // 4 rows x 2 bits need a byte
			dictHdr().uvarint(1).uvarint(4).bytes(byte(colenc.Plain)).uvarint(0).b},
		{"page longer than the chunk", Int64, 4,
			dictHdr().uvarint(1).uvarint(4).bytes(byte(colenc.Plain)).uvarint(9).bytes(0).b},
		{"dictionary longer than the chunk", Int64, 4,
			new(blobWriter).bytes(byte(colenc.Dict)).uvarint(1 << 40).ints(1).uvarint(0).b},
		{"dictionary count that overflows 8x", Int64, 4,
			new(blobWriter).bytes(byte(colenc.Dict)).uvarint(1 << 61).ints(1).uvarint(0).b},
		{"pages hold fewer rows than the metadata", Int64, 4,
			dictHdr().uvarint(1).uvarint(3).bytes(byte(colenc.Plain)).uvarint(1).bytes(0).b},
		{"pages hold more rows than the metadata", Int64, 4,
			dictHdr().uvarint(2).uvarint(3).bytes(byte(colenc.Plain)).uvarint(1).bytes(0).
				uvarint(3).bytes(byte(colenc.Plain)).uvarint(1).bytes(0).b},
		{"zero-row page", Int64, 4,
			dictHdr().uvarint(2).uvarint(0).bytes(byte(colenc.Plain)).uvarint(0).
				uvarint(4).bytes(byte(colenc.Plain)).uvarint(1).bytes(0).b},
		{"string dictionary truncated", String, 4,
			new(blobWriter).bytes(byte(colenc.Dict)).uvarint(2).bytes(1, 'a', 5, 'b').b},
	}
}

// malformedFrameChunks lists the frame-of-reference and decimal ones.
func malformedFrameChunks() []malformedChunk {
	frame := func() *blobWriter { return new(blobWriter).bytes(byte(colenc.FOR)).uvarint(1) }
	decimal := func() *blobWriter { return new(blobWriter).bytes(byte(colenc.Decimal), 2).uvarint(1) }
	exact := []byte{dcode(1, corrExact), dcode(2, corrExact), dcode(3, corrExact), dcode(4, corrExact)}
	nan := math.NaN()
	return []malformedChunk{
		{"frame width 0", Int64, 4, frame().framePage(4, 7, 0, 0, 0, 0, 0).b},
		{"frame width over 32", Int64, 4, frame().framePage(4, 7, 33, make([]byte, 17)...).b},
		{"frame page shorter than rows x width bits", Int64, 4, frame().framePage(4, 7, 8, 1, 2, 3).b},
		{"frame page without its header", Int64, 4, frame().uvarint(4).uvarint(5).bytes(1, 2, 3, 4, 5).b},
		{"frame base plus the widest offset overflows", Int64, 4, frame().framePage(4, math.MaxInt64-5, 3, 0, 0).b},
		{"frame chunk of a float column", Float64, 4, frame().framePage(4, 7, 8, 1, 2, 3, 4).b},
		{"frame chunk of a string column", String, 4, frame().framePage(4, 7, 8, 1, 2, 3, 4).b},
		// Three steps of 1 from MaxInt64-1: the last row is past int64.
		{"delta running sum leaves int64", Int64, 4, frame().deltaPage(4, math.MaxInt64-1, 1, zz(1), 0).b},
		// Steps of 0 or 1 from MaxInt64-2: the rows are in range, but deltas
		// of the width could carry the last past it.
		{"delta width could carry the sum past int64", Int64, 4, frame().deltaPage(4, math.MaxInt64-2, 1, zz(0), 0).b},
		{"delta sum below MinInt64", Int64, 4, frame().deltaPage(4, math.MinInt64+5, 0, zz(-2)).b},
		{"delta minimum step that does not decode", Int64, 4,
			frame().deltaPage(4, 7, 1, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, 0).b},
		{"delta minimum step cut off", Int64, 4, frame().uvarint(4).uvarint(10).ints(7).bytes(1|deltaCoded, 0x80).b},
		{"delta width over 32", Int64, 4, frame().deltaPage(4, 7, 33, zz(1), make([]byte, 13)...).b},
		{"delta page shorter than rows-1 deltas", Int64, 20, frame().deltaPage(20, 7, 8, zz(1), make([]byte, 18)...).b},
		{"decimal chunk of an int column", Int64, 4, decimal().decimalPage(4, 6|corrected, 0, exact).b},
		{"decimal scale outside the set", Float64, 4,
			new(blobWriter).bytes(byte(colenc.Decimal), byte(len(decimalScales))).uvarint(1).decimalPage(4, 6|corrected, 0, exact).b},
		{"decimal chunk cut before its scale", Float64, 4, []byte{byte(colenc.Decimal)}},
		{"decimal escape index past the raw list", Float64, 4,
			decimal().decimalPage(4, 6|corrected, 1, []byte{dcode(1, corrExact), dcode(1, corrEscape), dcode(3, corrExact), dcode(4, corrExact)}, nan).b},
		{"decimal raw list shorter than its escapes", Float64, 4,
			decimal().decimalPage(4, 6|corrected, 2, []byte{dcode(1, corrExact), dcode(0, corrEscape), dcode(3, corrExact), dcode(1, corrEscape)}, nan).b},
		// Four 3-bit codes, escapes 0, 1, 0 and 1: a 1-bit offset field
		// indexes two escapes, and the page declares three.
		{"decimal offset width cannot hold the escape count", Float64, 4,
			decimal().decimalPage(4, 1|corrected, 3, []byte{0b11_111_011, 0b1110}, nan, nan, nan).b},
		{"decimal escape on a page of exact rows", Float64, 4,
			decimal().decimalPage(4, 8, 1, []byte{1, 2, 3, 4}, nan).b},
		{"decimal escape count of 2^40", Float64, 4, decimal().decimalPage(4, 6|corrected, 1<<40, exact, nan).b},
		{"decimal offset width over 30", Float64, 4, decimal().decimalPage(4, 31|corrected, 0, make([]byte, 17)).b},
		{"decimal page shorter than its codes", Float64, 4,
			decimal().uvarint(4).uvarint(12).ints(100).bytes(6|corrected).uvarint(0).bytes(1, 2).b},
	}
}

// fsstChunk assembles an FSST chunk: the given symbols, then one page of the
// given body declaring rows rows.
func fsstChunk(symbols []string, rows int, body ...byte) []byte {
	w := new(blobWriter).bytes(byte(colenc.FSST)).uvarint(uint64(len(symbols)))
	for _, s := range symbols {
		w.bytes(byte(len(s))).bytes([]byte(s)...)
	}
	return w.uvarint(1).uvarint(uint64(rows)).uvarint(uint64(len(body))).bytes(body...).b
}

// fsstSymbols is a two-symbol table: code 0 is "ab", code 1 is "c".
var fsstSymbols = []string{"ab", "c"}

// malformedFSSTChunks lists the FSST ones, four rows each.
func malformedFSSTChunks() []malformedChunk {
	// Three well-formed values ("ab", "c", ""), then the last as given.
	page := func(last ...byte) []byte {
		return append([]byte{1, 0, 1, 1, 0}, last...)
	}
	many := make([]string, 256)
	for i := range many {
		many[i] = "s"
	}
	return []malformedChunk{
		{"FSST symbol of 0 bytes", String, 4, fsstChunk([]string{"ab", ""}, 4, page(1, 0)...)},
		{"FSST symbol of 9 bytes", String, 4, fsstChunk([]string{"ab", "123456789"}, 4, page(1, 0)...)},
		{"FSST table of 256 symbols", String, 4, fsstChunk(many, 4, page(1, 0)...)},
		{"FSST table cut inside a symbol", String, 4, []byte{byte(colenc.FSST), 2, 2, 'a', 'b', 4, 'c'}},
		{"FSST escape as a string's last byte", String, 4, fsstChunk(fsstSymbols, 4, page(2, 0, 255)...)},
		{"FSST code past the table", String, 4, fsstChunk(fsstSymbols, 4, page(2, 0, 2)...)},
		{"FSST code length overruns its page", String, 4, fsstChunk(fsstSymbols, 4, page(3, 0, 255)...)},
		{"FSST chunk of an int column", Int64, 4, fsstChunk(fsstSymbols, 4, page(1, 0)...)},
	}
}

// TestMalformedChunksAreErrors: every input the page-by-page decoder rejects
// is an error from the opened chunk too — at open, or from each kernel that
// would read the bad bytes — and never a panic.
func TestMalformedChunksAreErrors(t *testing.T) {
	good := dictHdr().uvarint(1).uvarint(4).bytes(byte(colenc.Plain)).uvarint(1).bytes(0b10_01_00_10).b
	if col, err := DecodeChunk(Int64, metaFor(good, 4), good); err != nil || !reflect.DeepEqual(col.Ints, []int64{30, 10, 20, 30}) {
		t.Fatalf("well-formed control chunk: %v, %v", col.Ints, err)
	}
	badCRC := metaFor(good, 4)
	badCRC.CRC++
	short := metaFor(good, 4)
	short.Size++
	cases := []struct {
		name string
		typ  Type
		m    ChunkMeta
		raw  []byte
	}{
		{"bad CRC", Int64, badCRC, good},
		{"size mismatch", Int64, short, good},
		{"unknown column type", Type(9), metaFor(good, 4), good},
		{"empty blob", Int64, metaFor(nil, 0), nil},
		{"unknown chunk encoding", Int64, metaFor([]byte{7, 0}, 0), []byte{7, 0}},
	}
	for _, bad := range malformedChunks() {
		cases = append(cases, struct {
			name string
			typ  Type
			m    ChunkMeta
			raw  []byte
		}{bad.name, bad.typ, metaFor(bad.raw, bad.rows), bad.raw})
	}
	// The well-formed neighbours of those: four FSST values, one escaped
	// byte among them, four rows in one frame, a decimal page of five
	// corrected rows — exact, escape 1, an ulp up, escape 0, an ulp down —
	// and one of four exact rows, its codes bare offsets.
	text := fsstChunk(fsstSymbols, 4, 1, 0, 1, 1, 0, 3, 0, 255, 'x')
	if col, err := DecodeChunk(String, metaFor(text, 4), text); err != nil || !reflect.DeepEqual(col.Strings, []string{"ab", "c", "", "abx"}) {
		t.Fatalf("well-formed FSST chunk: %q, %v", col.Strings, err)
	}
	frame := new(blobWriter).bytes(byte(colenc.FOR)).uvarint(1).framePage(4, -3, 8, 0, 1, 2, 255).b
	if col, err := DecodeChunk(Int64, metaFor(frame, 4), frame); err != nil || !reflect.DeepEqual(col.Ints, []int64{-3, -2, -1, 252}) {
		t.Fatalf("well-formed frame chunk: %v, %v", col.Ints, err)
	}
	// Steps of 2, 3 and 5 from -3 (deltas 0, 1 and 3 above 2); steps of -1
	// from MinInt64+3 at width 0, to the end of int64; and three steps of 0
	// or 1 from MaxInt64-3, the widest that can stay in it.
	for _, d := range []struct {
		raw  []byte
		want []int64
	}{
		{new(blobWriter).bytes(byte(colenc.FOR)).uvarint(1).deltaPage(4, -3, 2, zz(2), 0b11_01_00).b, []int64{-3, -1, 2, 7}},
		{new(blobWriter).bytes(byte(colenc.FOR)).uvarint(1).deltaPage(4, math.MinInt64+3, 0, zz(-1)).b,
			[]int64{math.MinInt64 + 3, math.MinInt64 + 2, math.MinInt64 + 1, math.MinInt64}},
		{new(blobWriter).bytes(byte(colenc.FOR)).uvarint(1).deltaPage(4, math.MaxInt64-3, 1, zz(0), 0b101).b,
			[]int64{math.MaxInt64 - 3, math.MaxInt64 - 2, math.MaxInt64 - 2, math.MaxInt64 - 1}},
	} {
		if col, err := DecodeChunk(Int64, metaFor(d.raw, 4), d.raw); err != nil || !reflect.DeepEqual(col.Ints, d.want) {
			t.Fatalf("well-formed delta chunk: %v, %v; want %v", col.Ints, err, d.want)
		}
	}
	decimal := new(blobWriter).bytes(byte(colenc.Decimal), 2).uvarint(1).decimalPage(5, 6|corrected, 2,
		[]byte{dcode(1, corrExact), dcode(1, corrEscape), dcode(3, corrUp), dcode(0, corrEscape), dcode(5, corrDown)},
		math.Copysign(0, -1), math.Inf(-1)).b
	if col, err := DecodeChunk(Float64, metaFor(decimal, 5), decimal); err != nil ||
		!sameColumn(col, FloatColumn([]float64{1.01, math.Inf(-1), math.Nextafter(1.03, 2), math.Copysign(0, -1), math.Nextafter(1.05, 1)})) {
		t.Fatalf("well-formed decimal chunk: %v, %v", col.Floats, err)
	}
	exactPage := new(blobWriter).bytes(byte(colenc.Decimal), 2).uvarint(1).decimalPage(4, 8, 0, []byte{1, 2, 3, 255}).b
	if col, err := DecodeChunk(Float64, metaFor(exactPage, 4), exactPage); err != nil ||
		!sameColumn(col, FloatColumn([]float64{1.01, 1.02, 1.03, 3.55})) {
		t.Fatalf("well-formed decimal chunk of exact rows: %v, %v", col.Floats, err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			if m == (ChunkMeta{}) {
				m = metaFor(tc.raw, 4)
			}
			if _, err := referenceDecodeChunk(tc.typ, m, tc.raw); err == nil && tc.typ <= String {
				t.Fatal("the reference decoder accepts this input: not a malformed chunk")
			}
			if _, err := DecodeChunk(tc.typ, m, tc.raw); err == nil {
				t.Fatal("DecodeChunk accepted it")
			}
			c, err := OpenChunk(tc.typ, m, tc.raw)
			if err != nil {
				return // rejected at open: no kernel can run
			}
			defer c.Release()
			// Values are checked where they are read: each kernel that
			// reads every row must fail.
			if _, err := c.Gather(bitmap.NewFull(c.NumRows())); err == nil {
				t.Error("Gather of every row succeeded")
			}
			// A reply copies FSST code strings undecoded, so a bad one may
			// ride it: then the gather that reads the reply fails.
			if reply, err := c.AppendSelected(nil, nil); err == nil {
				if r, err := OpenReply(tc.typ, c.NumRows(), reply); err == nil {
					if _, err := r.Gather(nil); err == nil {
						t.Error("the reply of every row gathers")
					}
				}
			}
			if dict, ok := c.Dict(); ok {
				if _, err := c.SelectCodes(bitmap.NewFull(dict.Len())); err == nil {
					t.Error("SelectCodes succeeded")
				}
			}
		})
	}
}

// TestMutatedChunksMatchReference corrupts well-formed chunks a few bytes at
// a time underneath a recomputed checksum — the inputs a CRC cannot stop —
// and requires the opened chunk to agree with the page-by-page decoder on
// every one: the same values, or both an error. Partial selections may fail
// or not, but may not panic, and what they return must be the reference's.
func TestMutatedChunksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for _, typ := range []Type{Int64, Float64, String} {
		for _, shape := range shapesOf(typ) {
			col := genColumn(rng, typ, shape, 300)
			m, raw := encodeTestChunk(col, shape, false, 128)
			sel := testSelections(rng, 300)["50%"]
			for trial := 0; trial < 400; trial++ {
				bad := append([]byte(nil), raw...)
				for n := 1 + rng.Intn(3); n > 0; n-- {
					// Mostly in the headers, where the structure is.
					at := rng.Intn(len(bad))
					if rng.Intn(2) == 0 {
						at = rng.Intn(min(len(bad), 48))
					}
					bad[at] ^= byte(1 + rng.Intn(255))
				}
				bm := m
				bm.CRC = crc32.ChecksumIEEE(bad)
				want, refErr := referenceDecodeChunk(typ, bm, bad)
				got, err := DecodeChunk(typ, bm, bad)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("%v/%v trial %d: DecodeChunk error %v, reference decoder error %v", typ, shape, trial, err, refErr)
				}
				if err == nil && !sameColumn(got, want) {
					t.Fatalf("%v/%v trial %d: DecodeChunk and the reference decoder disagree", typ, shape, trial)
				}
				c, err := OpenChunk(typ, bm, bad)
				if err != nil {
					continue
				}
				if part, err := c.Gather(sel); err == nil && refErr == nil && !sameColumn(part, referenceSelect(want, sel)) {
					t.Fatalf("%v/%v trial %d: partial Gather differs from the reference", typ, shape, trial)
				}
				if dict, ok := c.Dict(); ok {
					_, _ = c.SelectCodes(bitmap.NewFull(dict.Len()))
				}
				c.Release()
			}
		}
	}
}

// TestNumericEncodingsRoundTripBits: whatever kind the writer picks for a
// numeric column, every value comes back with the bits it went in with — the
// values a scaled decimal must not round (the zeros, NaNs of distinct payloads,
// infinities, subnormals, magnitudes at and past 2^53 over the scale, prices an
// ulp off their cents) and the ranges a frame of reference must not wrap (both
// ends of int64 in one page, one row, one distinct value) — at the default page
// size, at one that cuts the column into short pages, and in the benchmark
// smoke test's 2,000-row chunks.
func TestNumericEncodingsRoundTripBits(t *testing.T) {
	rng := rand.New(rand.NewSource(2121))
	nanPayload := func(p uint64) float64 { return math.Float64frombits(0x7FF0000000000000 | p) }
	specials := []float64{
		0, math.Copysign(0, -1), math.NaN(), nanPayload(1), nanPayload(0xDEADBEEF), -nanPayload(7),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040,
		1 << 53, -(1 << 53), (1 << 53) / 100.0, -(1 << 53) / 100.0, math.Nextafter((1<<53)/100.0, 0),
		(1<<53 - 1) / 100.0, (1 << 53) / 10000.0, math.MaxFloat64, 0.1, 0.07, 1e-5, 12345.6789,
	}
	cents := func(n int, off float64) []float64 { // lineitem's extended price
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(1+rng.Intn(50)) * (900 + float64(rng.Intn(200000))/100) * off
		}
		return out
	}
	withSpecials := cents(3000, 1)
	for i := range withSpecials {
		if i%17 == 0 {
			withSpecials[i] = specials[rng.Intn(len(specials))]
		}
	}
	seq := func(n int, from, step int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = from + int64(i)*step
		}
		return out
	}
	keys := make([]int64, 2000) // lineitem's l_partkey
	for i := range keys {
		keys[i] = 1 + rng.Int63n(200000)
	}
	cols := map[string]ColumnData{
		"specials alone":        FloatColumn(specials),
		"prices":                FloatColumn(cents(2000, 1)),
		"prices and specials":   FloatColumn(withSpecials),
		"negative prices":       FloatColumn(cents(500, -1)),
		"tenths of thousandths": FloatColumn(cents(500, 1e-2)),
		"one float":             FloatColumn([]float64{19.99}),
		"one NaN":               FloatColumn([]float64{nanPayload(3)}),
		"one distinct float":    FloatColumn(filled(400, 7.25)),
		"all escapes":           FloatColumn(filled(300, math.Pi)),
		"2^53 neighbours":       FloatColumn([]float64{1<<53 - 1, 1 << 53, 1<<53 + 2, -(1<<53 - 1), 1, 2, 3, 4, 5}),
		"int64 extremes":        IntColumn([]int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1}),
		"span of 2^32 exactly":  IntColumn(append(seq(50, -5, 1), 1<<32-5)),
		"span just inside 2^32": IntColumn(append(seq(50, -5, 1), 1<<32-6)),
		"near MaxInt64":         IntColumn(seq(300, math.MaxInt64-299, 1)),
		"near MinInt64":         IntColumn(seq(300, math.MinInt64, 1)),
		"one int":               IntColumn([]int64{-42}),
		"one distinct int":      IntColumn(filled(400, int64(1)<<40)),
		"ascending keys":        IntColumn(seq(2000, 1_000_000, 3)),
		"part keys":             IntColumn(keys),
	}
	kinds := map[colenc.Encoding]int{}
	for name, col := range cols {
		for _, pageRows := range []int{20000, 64, 1} {
			for _, compress := range []bool{true, false} {
				opts := WriterOptions{Compress: compress, PageRows: pageRows}
				m, raw := encodeChunk(col, opts)
				kinds[m.Encoding]++
				got, err := DecodeChunk(col.Type, m, raw)
				if err != nil || !sameColumn(got, col) {
					t.Fatalf("%s, %d-row pages, %v: decoded values differ from the written ones (%v)", name, pageRows, m.Encoding, err)
				}
				if ref, err := referenceDecodeChunk(col.Type, m, raw); err != nil || !sameColumn(ref, col) {
					t.Fatalf("%s, %d-row pages, %v: the reference decoder differs from the written values (%v)", name, pageRows, m.Encoding, err)
				}
				if m.Size > m.RawSize+16+uint64(3*(col.Len()/pageRows+1)) {
					t.Fatalf("%s, %d-row pages: %v chunk of %d bytes for %d bytes of values", name, pageRows, m.Encoding, m.Size, m.RawSize)
				}
			}
		}
	}
	for _, enc := range []colenc.Encoding{colenc.Plain, colenc.Dict, colenc.FOR, colenc.Decimal} {
		if kinds[enc] == 0 {
			t.Errorf("no column came out %v: %v", enc, kinds)
		}
	}
	// What must not be framed or scaled is not: both ends of int64 span more
	// than 32 bits, and a column of one irrational repeated is a dictionary.
	if m, _ := encodeChunk(cols["int64 extremes"], DefaultWriterOptions()); m.Encoding == colenc.FOR {
		t.Error("both ends of int64 in one frame of reference")
	}
	// A span of 2^32 does not fit 32-bit offsets; its steps, 1 and 2^32-50,
	// fit 32-bit deltas.
	if m, raw := encodeChunk(cols["span of 2^32 exactly"], DefaultWriterOptions()); m.Encoding != colenc.FOR {
		t.Errorf("a span of 2^32 in steps of 32 bits came out %v, want FOR", m.Encoding)
	} else if c, err := OpenChunk(Int64, m, raw); err != nil || !c.pages[0].delta {
		t.Error("a span of 2^32 framed as 32-bit offsets")
	}
	if m, _ := encodeChunk(cols["span just inside 2^32"], DefaultWriterOptions()); m.Encoding != colenc.FOR {
		t.Errorf("a span of 2^32-1 came out %v, want FOR", m.Encoding)
	}
	if m, _ := encodeChunk(cols["near MaxInt64"], DefaultWriterOptions()); m.Encoding != colenc.FOR {
		t.Errorf("a narrow range ending at MaxInt64 came out %v, want FOR", m.Encoding)
	}
}

// TestFrameReplySplitsWhereNoPageFits: rows 0, 1, 3, 7, … of one delta page
// stepping 2^31 a row are 2^31, 2^32, 2^33, … apart and span more than 32
// bits, so neither offsets nor deltas hold them in one page. The reply splits
// them over several, and gathers to the selected values.
func TestFrameReplySplitsWhereNoPageFits(t *testing.T) {
	vals := make([]int64, 64)
	for i := range vals {
		vals[i] = int64(i) << 31
	}
	m, raw := encodeChunk(IntColumn(vals), WriterOptions{PageRows: 64})
	c, err := OpenChunk(Int64, m, raw)
	if err != nil {
		t.Fatal(err)
	}
	if delta, pages := c.DeltaPages(); delta != 1 || pages != 1 || c.pages[0].width != 0 {
		t.Fatalf("%d of %d pages deltas, width %d: not one constant-stride delta page", delta, pages, c.pages[0].width)
	}
	sel := bitmap.New(64)
	for i := 1; i <= 64; i *= 2 {
		sel.Set(i - 1)
	}
	checkReply(t, c, sel, referenceSelect(IntColumn(vals), sel), "rows 2^k-1")
	reply, err := c.AppendSelected(nil, sel)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReply(Int64, sel.Count(), reply)
	if err != nil || len(r.pages) < 2 {
		t.Fatalf("the reply opens (%v) as %d pages, want several", err, len(r.pages))
	}
}

// TestCompressedFlagOpensWhateverTheSaving: the writer keeps Snappy only where
// it saves snappyMinSaving, but that is the writer's rule, not the format's —
// a chunk of any kind flagged Compressed opens however little (or however much
// less than nothing) the compression saved, so objects written when one byte
// was enough stay readable.
func TestCompressedFlagOpensWhateverTheSaving(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	noise := make([]int64, 3000) // incompressible: Snappy makes it larger
	for i := range noise {
		noise[i] = rng.Int63() - rng.Int63()
	}
	for name, tc := range map[string]struct {
		col  ColumnData
		opts WriterOptions
		want colenc.Encoding
	}{
		"plain noise":   {IntColumn(noise), WriterOptions{DisableDict: true}, colenc.Plain},
		"plain strings": {genColumn(rng, String, shapePlain, 800), WriterOptions{DisableDict: true}, colenc.Plain},
		"dictionary":    {genColumn(rng, Float64, shapePacked, 3000), WriterOptions{}, colenc.Dict},
		"frame":         {genColumn(rng, Int64, shapeFrame, 3000), WriterOptions{}, colenc.FOR},
		"decimal":       {genColumn(rng, Float64, shapeFrame, 3000), WriterOptions{}, colenc.Decimal},
	} {
		tc.opts.PageRows = 1000
		m, blob := encodeChunk(tc.col, tc.opts)
		if m.Encoding != tc.want || m.Compressed {
			t.Fatalf("%s: the writer made a %v chunk, compressed=%v", name, m.Encoding, m.Compressed)
		}
		raw := snappy.Encode(blob)
		saving := 1 - float64(len(raw))/float64(len(blob))
		if name == "plain noise" && saving >= 0 {
			t.Fatalf("%s: Snappy saved %.1f%% of noise", name, 100*saving)
		}
		m.Compressed, m.Size, m.CRC = true, uint64(len(raw)), crc32.ChecksumIEEE(raw)
		got, err := DecodeChunk(tc.col.Type, m, raw)
		if err != nil || !sameColumn(got, tc.col) {
			t.Errorf("%s (Snappy saved %.1f%%): %v", name, 100*saving, err)
		}
	}
	// And the writer's side of it: a chunk Snappy barely helps is stored as
	// encoded, one it helps by a fifth or more is stored compressed.
	m, _ := encodeChunk(IntColumn(noise), WriterOptions{Compress: true, DisableDict: true, PageRows: 1000})
	if m.Compressed {
		t.Error("the writer kept Snappy over noise")
	}
	m, _ = encodeChunk(genColumn(rng, String, shapePlain, 800), WriterOptions{Compress: true, DisableDict: true, PageRows: 1000})
	if !m.Compressed {
		t.Error("the writer dropped Snappy over text it shrinks by more than a fifth")
	}
}

// allocatedBy returns the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// rleBomb is a 26-byte dictionary chunk whose one run-length page declares
// 2^36 rows in a single run.
func rleBomb() []byte {
	return new(blobWriter).bytes(byte(colenc.Dict)).uvarint(1).ints(7).
		uvarint(1).uvarint(1 << 36).bytes(byte(colenc.RLEEnc)).uvarint(7).uvarint(1 << 36).uvarint(0).b
}

// TestChunkAllocationBombs: counts in untrusted chunk bytes are checked
// against the bytes present before anything is sized by them. The 26-byte
// chunk used to kill the process in make([]uint64, 0, 2^36) — a fatal error
// no recover catches.
func TestChunkAllocationBombs(t *testing.T) {
	bomb := rleBomb()
	if len(bomb) != 26 {
		t.Fatalf("bomb is %d bytes, want 26", len(bomb))
	}
	manyPages := new(blobWriter).bytes(byte(colenc.Plain)).uvarint(MaxChunkRows).b
	// As many pages declared as the bytes could hold headers for, none valid.
	hollowPages := append(new(blobWriter).bytes(byte(colenc.Plain)).uvarint(1<<20).b, make([]byte, 2<<20)...)
	// Found by FuzzOpenChunk: the old decoder made a []string of this length.
	bigDict := new(blobWriter).bytes(byte(colenc.Dict)).uvarint(1 << 41).b
	cases := []struct {
		name string
		typ  Type
		m    ChunkMeta
		raw  []byte
	}{
		{"metadata and page agree on 2^36 rows", Int64, metaFor(bomb, 1<<36), bomb},
		{"page claims 2^36 rows, metadata 10", Int64, metaFor(bomb, 10), bomb},
		{"page claims 2^36 rows, metadata the maximum", Int64, metaFor(bomb, MaxChunkRows), bomb},
		{"page directory of 2^25 entries in 5 bytes", Int64, metaFor(manyPages, MaxChunkRows), manyPages},
		{"page directory of 2^20 entries over 2 MiB of zeros", Int64, metaFor(hollowPages, MaxChunkRows), hollowPages},
		{"string dictionary of 2^41 entries in 7 bytes", String, metaFor(bigDict, 200), bigDict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			grew := allocatedBy(func() { _, err = DecodeChunk(tc.typ, tc.m, tc.raw) })
			if err == nil {
				t.Fatal("bomb decoded without error")
			}
			if grew > 1<<20 {
				t.Fatalf("rejecting the bomb allocated %d bytes, want < 1 MiB", grew)
			}
		})
	}
	// The legitimate neighbour still works: a run-length page is allowed to
	// be tiny for its rows.
	rows := 1 << 16
	ok := new(blobWriter).bytes(byte(colenc.Dict)).uvarint(1).ints(7).
		uvarint(1).uvarint(uint64(rows)).bytes(byte(colenc.RLEEnc)).uvarint(4).uvarint(uint64(rows)).uvarint(0).b
	col, err := DecodeChunk(Int64, metaFor(ok, rows), ok)
	if err != nil || len(col.Ints) != rows || col.Ints[rows-1] != 7 {
		t.Fatalf("a %d-row run in %d bytes: %d values, %v", rows, len(ok), len(col.Ints), err)
	}
}

// TestFooterRejectsInconsistentRowCounts: a footer whose chunk disagrees with
// its row group, or whose row group exceeds the format's ceiling, is malformed
// at parse — before a reader sizes a bitmap by it — and so is one followed by
// bytes it does not account for.
func TestFooterRejectsInconsistentRowCounts(t *testing.T) {
	f := &Footer{
		Columns:   []Column{{Name: "v", Type: Int64}},
		RowGroups: []RowGroup{{NumRows: 100, Chunks: []ChunkMeta{{Size: 8, NumValues: 100}}}},
	}
	if got, err := DecodeFooter(EncodeFooter(f)); err != nil || got.RowGroups[0].Chunks[0].NumValues != 100 {
		t.Fatalf("consistent footer: %v", err)
	}
	if _, err := DecodeFooter(append(EncodeFooter(f), 0)); err == nil {
		t.Fatal("a footer with a byte past its end must be rejected")
	}
	f.RowGroups[0].Chunks[0].NumValues = 101
	if _, err := DecodeFooter(EncodeFooter(f)); err == nil {
		t.Fatal("NumValues != NumRows must be rejected")
	}
	f.RowGroups[0].NumRows, f.RowGroups[0].Chunks[0].NumValues = MaxChunkRows+1, MaxChunkRows+1
	if _, err := DecodeFooter(EncodeFooter(f)); err == nil {
		t.Fatal("NumRows > MaxChunkRows must be rejected")
	}
	f.RowGroups[0].NumRows, f.RowGroups[0].Chunks[0].NumValues = MaxChunkRows, MaxChunkRows
	if _, err := DecodeFooter(EncodeFooter(f)); err != nil {
		t.Fatalf("NumRows == MaxChunkRows: %v", err)
	}
}

// TestChunkOwnOutlivesItsBytes: an owned chunk (the form a cache keeps)
// depends on neither the caller's bytes nor the pool.
func TestChunkOwnOutlivesItsBytes(t *testing.T) {
	prev := bufpool.SetPoison(true)
	defer bufpool.SetPoison(prev)
	rng := rand.New(rand.NewSource(5))
	for _, compress := range []bool{true, false} {
		col := genColumn(rng, String, shapePlain, 500)
		m, raw := encodeTestChunk(col, shapePlain, compress, 200)
		c, err := OpenChunk(String, m, raw)
		if err != nil {
			t.Fatal(err)
		}
		c.Own()
		c.Release() // a no-op now
		for i := range raw {
			raw[i] = 0xEE
		}
		// Churn the pool so a leaked arena would be handed out and dirtied.
		for i := 0; i < 4; i++ {
			b := bufpool.GetLen(64 << 10)
			for j := range b {
				b[j] = 0xAA
			}
			bufpool.Put(b)
		}
		got, err := c.Gather(nil)
		if err != nil || !sameColumn(got, col) {
			t.Fatalf("compress=%v: owned chunk changed under its source bytes (%v)", compress, err)
		}
	}
}
