package lpq

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/colenc"
)

// FuzzOpenChunk feeds arbitrary bytes under arbitrary metadata to the opened
// chunk, differentially against the page-by-page decoder: decoding every row
// gives the reference's values or both fail, a partial selection never
// panics and never returns anything but the reference's values — gathered
// here or through a projection reply — the filters
// set a row's bit exactly when the reference's value or code passes, and no
// input makes either side allocate out of proportion (the process would die). The
// size and checksum are made to match, as an attacker who controls the bytes
// would: those two checks are covered by the unit tests.
func FuzzOpenChunk(f *testing.F) {
	for _, s := range openChunkSeeds() {
		f.Add(s.raw, uint8(s.typ), s.rows, s.compressed)
	}
	f.Fuzz(func(t *testing.T, raw []byte, typ uint8, numValues int, compressed bool) {
		if numValues > 1<<16 && numValues <= MaxChunkRows {
			// Legitimate, and a run-length page can deliver: hundreds of
			// megabytes per execution, on both sides.
			t.Skip()
		}
		tp := Type(typ % 3)
		m := ChunkMeta{Size: uint64(len(raw)), NumValues: numValues, Compressed: compressed, CRC: crc32.ChecksumIEEE(raw)}
		want, refErr := referenceDecodeChunk(tp, m, raw)
		got, err := DecodeChunk(tp, m, raw)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("DecodeChunk error %v, reference decoder error %v", err, refErr)
		}
		if err == nil && !sameColumn(got, want) {
			t.Fatal("DecodeChunk and the reference decoder disagree")
		}
		c, err := OpenChunk(tp, m, raw)
		if err != nil {
			return
		}
		defer c.Release()
		// Every third row, and a verdict on every second dictionary entry.
		sel := bitmap.New(c.NumRows())
		for i := 0; i < c.NumRows(); i += 3 {
			sel.Set(i)
		}
		if part, err := c.Gather(sel); err == nil && refErr == nil && !sameColumn(part, referenceSelect(want, sel)) {
			t.Fatal("partial Gather differs from the reference")
		}
		// The reply of the selection may fail to be written, but not panic.
		// Written, it opens and gathers as the reference decoder reads it,
		// and from a chunk the reference reads, to the selected values.
		if reply, err := c.AppendSelected(nil, sel); err == nil {
			r, err := OpenReply(tp, sel.Count(), reply)
			if err != nil {
				if refErr == nil {
					t.Fatalf("the reply of a well-formed chunk does not open: %v", err)
				}
				return
			}
			got, err := r.Gather(nil)
			ref, replyErr := referenceDecodeReply(tp, reply, sel.Count())
			if (err == nil) != (replyErr == nil) || err == nil && !sameColumn(got, ref) {
				t.Fatalf("the reply gathers (%v) otherwise than the reference decoder reads it (%v)", err, replyErr)
			}
			if refErr == nil && (err != nil || !sameColumn(got, referenceSelect(want, sel))) {
				t.Fatalf("the reply of a well-formed chunk gathers to other values (%v)", err)
			}
		}
		if c.enc == colenc.FOR {
			rows, err := c.SelectInts(c.pages[0].base+1, math.MaxInt64, numValues%2 == 0)
			if err != nil {
				t.Fatalf("SelectInts over an opened frame-of-reference chunk: %v", err)
			}
			for r, v := range want.Ints {
				if refErr == nil && rows.Get(r) != ((v > c.pages[0].base) != (numValues%2 == 0)) {
					t.Fatalf("SelectInts disagrees with the reference's value %d at row %d", v, r)
				}
			}
		}
		if dict, ok := c.Dict(); ok {
			verdict := bitmap.New(dict.Len())
			for i := 0; i < dict.Len(); i += 2 {
				verdict.Set(i)
			}
			rows, err := c.SelectCodes(verdict)
			switch {
			case err == nil && refErr != nil:
				t.Fatalf("SelectCodes read every code of a chunk the reference rejects (%v) and found %d rows", refErr, rows.Count())
			case err != nil && refErr == nil:
				t.Fatalf("SelectCodes failed on a chunk the reference decodes: %v", err)
			case err == nil:
				codes, err := referenceCodes(tp, m, raw)
				if err != nil {
					t.Fatalf("reference codes of a chunk the reference decodes: %v", err)
				}
				for r, code := range codes {
					if rows.Get(r) != verdict.Get(int(code)) {
						t.Fatalf("SelectCodes disagrees with the reference's code %d at row %d", code, r)
					}
				}
			}
		}
	})
}

// fuzzChunk is a seed of FuzzOpenChunk: a chunk's bytes and the metadata it
// is opened under.
type fuzzChunk struct {
	raw        []byte
	typ        Type
	rows       int
	compressed bool
}

// openChunkSeeds is FuzzOpenChunk's seed corpus: chunks of every shape the
// writer makes, every hand-assembled malformed chunk, and allocation bombs.
func openChunkSeeds() []fuzzChunk {
	var seeds []fuzzChunk
	rng := rand.New(rand.NewSource(1))
	for _, typ := range []Type{Int64, Float64, String} {
		for _, shape := range shapesOf(typ) {
			col := genColumn(rng, typ, shape, 200)
			for _, compress := range []bool{true, false} {
				// Pages of 72 and 100 rows start off a result word, and 100
				// rows of an odd width off a byte.
				for _, pageRows := range []int{64, 72, 100} {
					m, raw := encodeTestChunk(col, shape, compress, pageRows)
					seeds = append(seeds, fuzzChunk{raw, typ, m.NumValues, m.Compressed})
				}
			}
		}
	}
	for _, bad := range malformedChunks() {
		seeds = append(seeds, fuzzChunk{bad.raw, bad.typ, bad.rows, false})
	}
	return append(seeds,
		fuzzChunk{rleBomb(), Int64, 1 << 36, false},
		fuzzChunk{rleBomb(), Int64, 10, false},
		fuzzChunk{[]byte("\x01\xff\xff\xff\xff\xff<"), String, 200, false}, // 2^41-entry string dictionary
		fuzzChunk{[]byte{}, String, 0, false})
}

// FuzzParseFooterTail feeds arbitrary bytes to the footer parser a Put runs
// on an uploaded object: it must fail cleanly or return a footer that keeps
// the invariants every reader sizes things by, and that survives re-encoding.
func FuzzParseFooterTail(f *testing.F) {
	w := NewWriter(testSchema, DefaultWriterOptions())
	_ = w.WriteRowGroup([]ColumnData{IntColumn([]int64{1, 2}), FloatColumn([]float64{1, 2}), StringColumn([]string{"a", "b"})})
	file, _ := w.Finish()
	f.Add(file, uint64(len(file)))
	f.Add(file[len(file)-40:], uint64(len(file)))
	f.Add([]byte(Magic+"\x00\x00\x00\x00"+Magic), uint64(12))
	f.Fuzz(func(t *testing.T, tail []byte, size uint64) {
		footer, err := ParseFooterTail(tail, size)
		if err != nil {
			return
		}
		for _, rg := range footer.RowGroups {
			if rg.NumRows < 0 || rg.NumRows > MaxChunkRows || len(rg.Chunks) != len(footer.Columns) {
				t.Fatalf("row group of %d rows, %d chunks for %d columns", rg.NumRows, len(rg.Chunks), len(footer.Columns))
			}
			for _, c := range rg.Chunks {
				if c.NumValues != rg.NumRows {
					t.Fatalf("chunk of %d values in a row group of %d rows", c.NumValues, rg.NumRows)
				}
			}
		}
		again, err := DecodeFooter(EncodeFooter(footer))
		if err != nil || again.NumChunks() != footer.NumChunks() || again.NumRows() != footer.NumRows() {
			t.Fatalf("accepted footer does not survive re-encoding: %v", err)
		}
	})
}

// FuzzDecimalRoundTrip: every float64 bit pattern comes back bit for bit from
// a decimal page. The input is one page of patterns, written as they are and,
// at every scale of decimalScales, moved onto a decimal near each: an integer
// of either sign across zero divided by the scale, its bits then moved a few
// ulps either way (at zero, into negative NaNs). Each column is written by the
// writer, as whatever kind it picks, and forced into a decimal page where its
// integers frame; each is read back through OpenChunk and a Scanner over every
// row, through the projection reply of every other row (AppendSelected,
// OpenReply, Gather), and by the reference decoder.
func FuzzDecimalRoundTrip(f *testing.F) {
	patterns := func(vals ...float64) []byte {
		return colenc.PutFloat64s(nil, vals)
	}
	f.Add(patterns(0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, math.MaxFloat64, 1<<53, -(1 << 53), (1<<53)/100.0, 0.1, 0.07, -12345.6789))
	f.Add(patterns(1.01, math.Nextafter(1.02, 2), math.Nextafter(1.03, 0), 2004.5, -0.25, 99999.99, 1e-5, 1e300))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/8, 1024)
		if n == 0 {
			return
		}
		bitsIn := make([]uint64, n)
		for i := range bitsIn {
			bitsIn[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		cols := [][]float64{make([]float64, n)}
		for i, u := range bitsIn {
			cols[0][i] = math.Float64frombits(u)
		}
		for _, scale := range decimalScales {
			vals := make([]float64, n)
			for i, u := range bitsIn {
				k := int64(u>>16%20001) - 10000
				ulps := uint64(u&7) - 3
				vals[i] = math.Float64frombits(math.Float64bits(float64(k)/scale) + ulps)
			}
			cols = append(cols, vals)
		}
		half := bitmap.New(n)
		for i := 0; i < n; i += 2 {
			half.Set(i)
		}
		for ci, vals := range cols {
			col := FloatColumn(vals)
			m, raw := encodeChunk(col, WriterOptions{PageRows: n})
			checkRoundTrip(t, fmt.Sprintf("column %d as %v", ci, m.Encoding), col, m, raw, half)
			if blob, ok := tryDecimalEncode(vals, n, math.MaxInt); ok {
				checkRoundTrip(t, fmt.Sprintf("column %d as decimal", ci), col, metaFor(blob, n), blob, half)
			}
		}
	})
}

// checkRoundTrip reads chunk raw of col's values, ints or floats, back every
// way a reader can: a Scanner over every row, the reply of the rows each of
// sels selects (checkReply), and the reference decoder. Each must give back
// col's bits.
func checkRoundTrip(t *testing.T, name string, col ColumnData, m ChunkMeta, raw []byte, sels ...*bitmap.Bitmap) {
	t.Helper()
	c, err := OpenChunk(col.Type, m, raw)
	if err != nil {
		t.Fatalf("%s: OpenChunk: %v", name, err)
	}
	defer c.Release()
	var sc Scanner
	if err := c.Scan(&sc, nil); err != nil {
		t.Fatalf("%s: Scan: %v", name, err)
	}
	got := ColumnData{Type: col.Type}
	for sc.Next() {
		if col.Type == Int64 {
			got.Ints = append(got.Ints, sc.Ints()...)
		} else {
			got.Floats = append(got.Floats, sc.Floats()...)
		}
	}
	if err := sc.Err(); err != nil || !sameColumn(got, col) {
		t.Fatalf("%s: the Scanner reads other bits than were written (%v)", name, err)
	}
	for _, sel := range sels {
		checkReply(t, c, sel, referenceSelect(col, sel), name)
	}
	if ref, err := referenceDecodeChunk(col.Type, m, raw); err != nil || !sameColumn(ref, col) {
		t.Fatalf("%s: the reference decoder reads other bits than were written (%v)", name, err)
	}
}

// FuzzFrameRoundTrip: every int64 sequence comes back from a
// frame-of-reference chunk, offsets or deltas. The input's 8-byte words are
// drawn into sequences of every shape a page meets — as given, sorted, at a
// constant stride, descending, sorted with ±1 jitter, and next to MinInt64
// and MaxInt64 — cut into pages of the given rows. Each is written by the
// writer, as whatever kind it picks, and forced into frame pages where they
// fit; each is read back through OpenChunk and a Scanner, through the replies
// of every other row and of rows 2^k-1, whose gaps double until no frame page
// holds them (AppendSelected, OpenReply, Gather), and by the reference
// decoder.
func FuzzFrameRoundTrip(f *testing.F) {
	words := func(vals ...int64) []byte { return colenc.PutInt64s(nil, vals) }
	f.Add(words(1, 2, 3, 5, 8, 13, 21), uint8(3))
	f.Add(words(math.MinInt64, math.MaxInt64, 0, -1, 1), uint8(0))
	f.Add(words(1<<31, 7, -1<<40, 12345678901, 1<<62, -3), uint8(64))
	f.Add(words(1<<31, 1<<31, 1<<31, 1<<31, 1<<31, 1<<31, 1<<31, 1<<31, 1<<31, 1<<31, 1<<31, 1<<31, 1<<31, 1<<31, 1<<31, 1<<31), uint8(200))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, pageRows uint8) {
		n := min(len(data)/8, 1024)
		if n == 0 {
			return
		}
		given := make([]int64, n)
		for i := range given {
			given[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		sorted := slices.Clone(given)
		slices.Sort(sorted)
		stride, descending, jitter, edges := make([]int64, n), slices.Clone(sorted), slices.Clone(sorted), make([]int64, n)
		slices.Reverse(descending)
		for i, u := range given {
			stride[i] = given[0] + int64(i)*(given[n-1]>>(uint64(u)&63))
			jitter[i] += u&3 - 1 // -1, 0, +1 or +2
			edges[i] = math.MinInt64 + u>>1&15
			if u&1 != 0 {
				edges[i] = math.MaxInt64 - u>>1&15
			}
		}
		half, doubling := bitmap.New(n), bitmap.New(n)
		for i := 0; i < n; i += 2 {
			half.Set(i)
		}
		for i := 1; i <= n; i *= 2 {
			doubling.Set(i - 1)
		}
		rows := max(int(pageRows), 1)
		for name, vals := range map[string][]int64{
			"as given": given, "sorted": sorted, "constant stride": stride,
			"descending": descending, "jittered": jitter, "int64's ends": edges,
		} {
			col := IntColumn(vals)
			m, raw := encodeChunk(col, WriterOptions{PageRows: rows})
			checkRoundTrip(t, fmt.Sprintf("%s as %v", name, m.Encoding), col, m, raw, half, doubling)
			if blob, ok := tryFrameEncode(vals, rows, math.MaxInt); ok {
				checkRoundTrip(t, name+" as frames", col, metaFor(blob, n), blob, half, doubling)
			}
		}
	})
}

// FuzzTopKCandidates: Chunk.Reaching, page after page from the row it starts
// at to the chunk's end, marks every row whose value may reach a top-k
// cut-off — at or beyond it in the scan's direction, or a NaN — and no row
// before the start. The chunk holds values drawn from data: floats as cents an
// ulp or a few off (corrections and escapes), as raw bits, or as integers of
// 2^50 and more over 100; ints as given, sorted (delta pages) or in a narrow
// frame. Each column is written by the writer, as whatever kind it picks, and
// forced into decimal or frame pages where they fit. The cut-off is one of the
// values (ties) or raw bits (infinities, NaNs).
func FuzzTopKCandidates(f *testing.F) {
	words := func(vals ...uint64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	f.Add(words(1<<20, 3<<20|5, 7<<16, 9<<16|2, 11<<20|7, 5<<16|3, 2<<16|6, 8<<16), uint8(0), uint64(6), true, uint16(1), uint8(3))
	f.Add(words(math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)), math.Float64bits(1.5), 0, 1<<63), uint8(1), math.Float64bits(math.Inf(1)), true, uint16(0), uint8(2))
	f.Add(words(1, 99, 500, 1<<30, 7, 3), uint8(2), uint64(4), false, uint16(2), uint8(4))
	f.Add(words(5, 1, 9, 3, 7, 2, 8, 4, 6), uint8(4), uint64(9), false, uint16(3), uint8(5))
	f.Add(words(17, 4000, 123, 2500, 2500, 77), uint8(5), uint64(8), true, uint16(0), uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, shape uint8, cutBits uint64, desc bool, from uint16, pageRows uint8) {
		n := min(len(data)/8, 1024)
		if n == 0 {
			return
		}
		given := make([]uint64, n)
		for i := range given {
			given[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		var col ColumnData
		if shape%6 < 3 {
			vals := make([]float64, n)
			for i, u := range given {
				switch shape % 6 {
				case 0:
					k := int64(u>>16%20001) - 10000
					vals[i] = math.Float64frombits(math.Float64bits(float64(k)/100) + uint64(u&7) - 3)
				case 1:
					vals[i] = math.Float64frombits(u)
				default:
					vals[i] = float64(1<<50+int64(u>>8%1_000_000)) / 100
					if u&1 != 0 {
						vals[i] = -vals[i]
					}
				}
			}
			col = FloatColumn(vals)
		} else {
			vals := make([]int64, n)
			for i, u := range given {
				vals[i] = int64(u)
				if shape%6 == 5 {
					vals[i] = int64(u%5000) - 2500
				}
			}
			if shape%6 == 4 {
				slices.Sort(vals)
			}
			col = IntColumn(vals)
		}
		cut := Cut{Int: int64(cutBits), Float: math.Float64frombits(cutBits), Desc: desc}
		if i := int(cutBits>>1) % n; cutBits&1 == 0 && col.Type == Float64 {
			cut.Float = col.Floats[i]
		} else if cutBits&1 == 0 {
			cut.Int = col.Ints[i]
		}
		rows := max(int(pageRows), 1)
		m, raw := encodeChunk(col, WriterOptions{PageRows: rows})
		checkReaching(t, m.Encoding.String(), col, m, raw, cut, int(from)%n)
		if col.Type == Float64 {
			if blob, ok := tryDecimalEncode(col.Floats, rows, math.MaxInt); ok {
				checkReaching(t, "decimal", col, metaFor(blob, n), blob, cut, int(from)%n)
			}
		} else if blob, ok := tryFrameEncode(col.Ints, rows, math.MaxInt); ok {
			checkReaching(t, "frames", col, metaFor(blob, n), blob, cut, int(from)%n)
		}
	})
}

// checkReaching opens chunk raw of col's values and checks that Reaching,
// from row start on, marks every row whose value reaches cut and none before
// start, and that the pages it steps through end at the chunk's end.
func checkReaching(t *testing.T, name string, col ColumnData, m ChunkMeta, raw []byte, cut Cut, start int) {
	t.Helper()
	ch, err := OpenChunk(col.Type, m, raw)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer ch.Release()
	marks := bitmap.New(col.Len())
	for r := start; r < col.Len(); {
		end, err := ch.Reaching(marks, r, cut)
		if err != nil || end <= r || end > col.Len() {
			t.Fatalf("%s: Reaching from row %d ends at %d: %v", name, r, end, err)
		}
		r = end
	}
	for i := 0; i < col.Len(); i++ {
		var reaches bool
		var v any
		if col.Type == Float64 {
			f := col.Floats[i]
			reaches, v = f != f || cut.Desc && f >= cut.Float || !cut.Desc && f <= cut.Float, f
		} else {
			n := col.Ints[i]
			reaches, v = cut.Desc && n >= cut.Int || !cut.Desc && n <= cut.Int, n
		}
		if i < start && marks.Get(i) {
			t.Fatalf("%s: row %d, before the start %d, is marked", name, i, start)
		}
		if i >= start && reaches && !marks.Get(i) {
			t.Fatalf("%s: row %d (%v) reaches %+v but is not marked", name, i, v, cut)
		}
	}
}
