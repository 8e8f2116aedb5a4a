package lpq

import (
	"hash/crc32"
	"math"
	"math/rand"
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
	rng := rand.New(rand.NewSource(1))
	for _, typ := range []Type{Int64, Float64, String} {
		for shape := shapePlain; shape < numShapes; shape++ {
			col := genColumn(rng, typ, shape, 200)
			for _, compress := range []bool{true, false} {
				// Pages of 72 and 100 rows start off a result word, and 100
				// rows of an odd width off a byte.
				for _, pageRows := range []int{64, 72, 100} {
					m, raw := encodeTestChunk(col, shape, compress, pageRows)
					f.Add(raw, uint8(typ), m.NumValues, m.Compressed)
				}
			}
		}
	}
	for _, bad := range append(malformedFrameChunks(), malformedFSSTChunks()...) {
		f.Add(bad.raw, uint8(bad.typ), bad.rows, false)
	}
	f.Add(rleBomb(), uint8(Int64), 1<<36, false)
	f.Add(rleBomb(), uint8(Int64), 10, false)
	f.Add([]byte("\x01\xff\xff\xff\xff\xff<"), uint8(String), 200, false) // 2^41-entry string dictionary
	f.Add([]byte{}, uint8(String), 0, false)
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
		again, err := decodeFooter(encodeFooter(footer))
		if err != nil || again.NumChunks() != footer.NumChunks() || again.NumRows() != footer.NumRows() {
			t.Fatalf("accepted footer does not survive re-encoding: %v", err)
		}
	})
}
